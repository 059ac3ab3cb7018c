package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// The traced run of a served workload. One client repeats a quarter of the
// workload's operations, and performs each of them three times under one
// "op" span: over HTTP against the fixture server, as a Server.* library call
// against a second server in the same state, and one public function at a
// time on the twin. The HTTP round trip minus the library call is the
// transport-and-handler overhead; the twin's spans are the layers.

// dl_* counters read off the fixture servers' registries around the timed
// region.
var registryCounters = []string{
	"dl_plancache_hits_total", "dl_plancache_misses_total",
	"dl_tuples_derived_total", "dl_tuples_attempted_total", "dl_tuples_exchanged_total",
	"dl_resultcache_maintained_total", "dl_resultcache_recomputed_total", "dl_resultcache_evictions_total",
	"dl_dedup_probes_total", "dl_csr_builds_total",
	"dl_server_errors_total", "dl_server_client_errors_total",
}

func readCounters(nodes []*node) map[string]float64 {
	out := make(map[string]float64, len(registryCounters))
	for _, name := range registryCounters {
		for _, n := range nodes {
			out[name] += float64(n.srv.Registry().Counter(name).Value())
		}
	}
	return out
}

// tracedAcc accumulates, over the traced repetitions, everything the
// per-layer metrics are computed from besides the spans.
type tracedAcc struct {
	lc       layerCounts
	counters map[string]float64 // registry deltas over the timed regions
	ops      int
	httpHits int // "cached":true responses over HTTP
	httpQs   int
	// Paired differences per operation, microseconds.
	queryOverhead, factsOverhead, firstRowOverhead []float64
	cacheBytes, sizeBytes                          []float64 // end of each repetition
}

// httpSpan names the span of the HTTP round trip per operation kind.
var httpSpan = [...]string{opQuery: "http.query", opWrite: "http.facts", opStream: "http.stream"}

// libCall performs the operation as a Server.* library call under a span and
// returns the span's duration.
func libCall(n *node, o op, rec *recorder, parent, opID int, acc *tracedAcc) (float64, error) {
	ctx := context.Background()
	switch o.kind {
	case opWrite:
		id := rec.begin("server.load_facts", parent, opID, n.fx.class)
		_, err := n.srv.LoadFacts(o.text)
		return rec.end(id), err
	case opStream:
		id := rec.begin("server.stream_query", parent, opID, n.fx.class)
		res, err := n.srv.StreamQuery(ctx, o.text, streamLimit, nil, func([]string) bool { return true })
		d := rec.end(id)
		if err == nil {
			acc.lc.queries++
			if res.Shards > 1 {
				acc.lc.sharded++
			}
		}
		return d, err
	}
	id := rec.begin("server.query_miss", parent, opID, n.fx.class)
	res, err := n.srv.Query(ctx, o.text, nil)
	d := rec.end(id)
	if err != nil {
		return d, err
	}
	if res.Cached {
		rec.spans[id].Name = "server.query_hit"
	} else {
		acc.lc.queries++
		if res.Shards > 1 {
			acc.lc.sharded++
		}
	}
	id = rec.begin("server.encode", parent, opID, n.fx.class)
	body, err := json.Marshal(res)
	rec.end(id)
	acc.lc.encodeBytes += float64(len(body))
	acc.lc.encodeN++
	return d, err
}

// twinOp replays the operation on the twin under a "twin" span and returns
// the twin's first-row time for a stream (0 otherwise).
func twinOp(t *twin, o op, rec *recorder, parent, opID int, lc *layerCounts) (float64, error) {
	id := rec.begin("twin", parent, opID, t.class)
	defer rec.end(id)
	switch o.kind {
	case opWrite:
		return 0, t.write(o.text, rec, id, opID)
	case opStream:
		before := len(rec.spans)
		err := t.streamQuery(o.class, o.text, rec, id, opID, lc)
		for _, s := range rec.spans[before:] {
			if s.Name == "eval.stream.first_row" {
				return float64(s.EndNS-s.StartNS) / 1e3, err
			}
		}
		return 0, err
	}
	return 0, t.query(o.class, o.text, rec, id, opID, lc)
}

// tracedRep runs one traced repetition of seq.
func (h *harness) tracedRep(w *servedWorkload, seq []op, final *oracle, rec *recorder, acc *tracedAcc, opBase int) error {
	nodes, _, err := startNodes(h.fxs, h.hc)
	if err != nil {
		return err
	}
	defer stopNodes(nodes)
	libs, _, err := startNodes(h.fxs, nil)
	if err != nil {
		return err
	}
	setup := rec.begin("setup", -1, -1, "")
	twins := make([]*twin, len(h.fxs))
	for i, fx := range h.fxs {
		if twins[i], err = newTwin(fx, rec, setup); err != nil {
			return fmt.Errorf("twin %s: %w", fx.class, err)
		}
	}
	rec.end(setup)

	// Warm-up on all three, so their states agree; its spans and counts are
	// thrown away.
	h.warmUp(w, nodes)
	scratch, scratchAcc := newRecorder(), &tracedAcc{}
	for _, o := range w.warm(h) {
		if _, err := libCall(libs[o.class], o, scratch, -1, -1, scratchAcc); err != nil {
			return err
		}
		if _, err := twinOp(twins[o.class], o, scratch, -1, -1, &scratchAcc.lc); err != nil {
			return err
		}
	}

	before := readCounters(nodes)
	c := &conn{hc: h.hc}
	for i, o := range seq {
		n, opID := nodes[o.class], opBase+i
		root := rec.begin("op", -1, opID, n.fx.class)
		hid := rec.begin(httpSpan[o.kind], root, opID, n.fx.class)
		r := c.do(n, o)
		httpUS := rec.end(hid)
		if r.firstRowUS > 0 {
			s := rec.spans[hid]
			rec.spans = append(rec.spans, span{ID: len(rec.spans), Parent: hid, Op: opID, Name: "http.first_row",
				Class: n.fx.class, StartNS: s.StartNS, EndNS: s.StartNS + int64(r.firstRowUS*1e3)})
		}
		h.checked(w, c, n, o, r, i)
		if o.kind != opWrite {
			acc.httpQs++
			if bytes.Contains(c.body.Bytes(), []byte(`"cached":true`)) {
				acc.httpHits++
			}
		}
		libUS, err := libCall(libs[o.class], o, rec, root, opID, acc)
		if err != nil {
			return fmt.Errorf("%s %s: library call: %w", n.fx.class, o.text, err)
		}
		twinFirst, err := twinOp(twins[o.class], o, rec, root, opID, &acc.lc)
		if err != nil {
			return fmt.Errorf("%s %s: twin: %w", n.fx.class, o.text, err)
		}
		rec.end(root)
		switch o.kind {
		case opQuery:
			acc.queryOverhead = append(acc.queryOverhead, httpUS-libUS)
		case opWrite:
			acc.factsOverhead = append(acc.factsOverhead, httpUS-libUS)
		case opStream:
			if r.firstRowUS > 0 && twinFirst > 0 {
				acc.firstRowOverhead = append(acc.firstRowOverhead, r.firstRowUS-twinFirst)
			}
		}
	}
	after := readCounters(nodes)
	for name, v := range after {
		acc.counters[name] += v - before[name]
	}
	acc.ops += len(seq)

	// The twin must have followed the server epoch for epoch.
	var cacheBytes, size int64
	for i, n := range nodes {
		if got, want := twins[i].snap.Epoch(), n.srv.Snapshot().Epoch(); got != want {
			h.count(0, fmt.Sprintf("%s: twin at epoch %d, server at %d", n.fx.class, got, want))
		}
		cacheBytes += n.srv.Cache().Bytes()
		size += sizeBytes(n.srv.Snapshot())
	}
	acc.cacheBytes = append(acc.cacheBytes, float64(cacheBytes))
	acc.sizeBytes = append(acc.sizeBytes, float64(size))

	h.finalCheck(nodes, final)
	return nil
}

// ratio is a/b, or 0 when b is 0: a layer that did nothing has no share.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runServedTraced measures one served workload's per-layer metrics.
func (h *harness) runServedTraced(w *servedWorkload, rec *recorder) (*runResult, error) {
	start := time.Now()
	seq := w.ops(h, 0, tracedDivisor)
	var final *oracle
	if !w.static {
		var err error
		if final, err = newOracle(h.fxs, writesOf(h, [][]op{seq})); err != nil {
			return nil, err
		}
	}
	res := &runResult{Workload: w.name, Trace: true, Clients: 1, OpsPerRep: len(seq), Metrics: map[string]metric{}}

	// The same operations untraced, for the tracing overhead.
	ref, err := h.servedRep(w, [][]op{seq}, final)
	if err != nil {
		return nil, err
	}
	untracedOpsPerS := float64(ref.ops) / ref.wallS

	acc := &tracedAcc{counters: map[string]float64{}}
	for res.Reps == 0 || time.Since(start).Seconds() < h.cfg.seconds {
		if err := h.tracedRep(w, seq, final, rec, acc, res.Reps*len(seq)); err != nil {
			return nil, err
		}
		res.Reps++
	}

	m := map[string]float64{}
	med := func(name, class string) float64 { return median(rec.durations(name, class)) }
	setupOnly := func(name string) []float64 {
		return rec.durationsWhere(func(s span) bool { return s.Name == name && s.Op < 0 })
	}
	opOnly := func(name string) []float64 {
		return rec.durationsWhere(func(s span) bool { return s.Name == name && s.Op >= 0 })
	}
	nfacts := 0
	for _, fx := range h.fxs {
		nfacts += fx.nfacts
	}
	kfacts := float64(nfacts*res.Reps) / 1000

	m["parser.parse_query_us"] = med("parser.parse_query", "")
	m["parser.parse_program_us"] = med("parser.parse_program", "")
	m["eval.plan.compile_us"] = med("eval.plan.compile", "")
	cn := acc.counters
	m["eval.plan.cache_hit_share"] = ratio(cn["dl_plancache_hits_total"], cn["dl_plancache_hits_total"]+cn["dl_plancache_misses_total"])
	for ci, c := range classNames {
		f := acc.lc.fix[ci]
		m["eval.fixpoint."+c+".answer_us"] = med("eval.fixpoint.answer", c)
		m["eval.fixpoint."+c+".visited_per_op"] = ratio(f.visited, float64(f.n))
		m["eval.fixpoint."+c+".derived_per_op"] = ratio(f.derived, float64(f.n))
		m["eval.fixpoint."+c+".rounds_per_op"] = ratio(f.rounds, float64(f.n))
		m["eval.fixpoint."+c+".allocs_per_op"] = ratio(f.allocs, float64(f.n))
		s := acc.lc.stream[ci]
		m["eval.stream."+c+".first_row_us"] = med("eval.stream.first_row", c)
		m["eval.stream."+c+".derived_per_op"] = ratio(s.derived, float64(s.n))
		m["eval.maintain."+c+".maintain_us"] = med("eval.maintain.maintain", c)
	}
	m["eval.fixpoint.derived_share"] = ratio(cn["dl_tuples_derived_total"], cn["dl_tuples_attempted_total"])
	m["eval.shard.auto_sharded_share"] = ratio(float64(acc.lc.sharded), float64(acc.lc.queries))
	m["eval.shard.exchanged_per_op"] = ratio(cn["dl_tuples_exchanged_total"], float64(acc.ops))
	m["eval.stream.early_exit_share"] = ratio(acc.lc.streamDerived, acc.lc.matDerived)
	m["eval.maintain.maintained_share"] = ratio(cn["dl_resultcache_maintained_total"],
		cn["dl_resultcache_maintained_total"]+cn["dl_resultcache_recomputed_total"])
	m["eval.resultcache.hit_share"] = ratio(float64(acc.httpHits), float64(acc.httpQs))
	m["eval.resultcache.lookup_us"] = med("eval.resultcache.lookup", "")
	m["eval.resultcache.bytes"] = median(acc.cacheBytes)
	m["eval.resultcache.evictions"] = cn["dl_resultcache_evictions_total"]
	m["storage.scan_facts_us_per_kfact"] = ratio(sum(setupOnly("storage.scan_facts")), kfacts)
	m["storage.insert_us_per_ktuple"] = ratio(sum(setupOnly("storage.insert")), kfacts)
	m["storage.index_build_us"] = ratio(sum(setupOnly("storage.index_build")), float64(res.Reps))
	m["storage.dedup_probes_per_op"] = ratio(cn["dl_dedup_probes_total"], float64(acc.ops))
	m["storage.csr_builds_per_op"] = ratio(cn["dl_csr_builds_total"], float64(acc.ops))
	m["storage.snapshot_us"] = median(opOnly("storage.snapshot"))
	m["storage.diff_us"] = med("storage.diff", "")
	m["storage.size_bytes"] = median(acc.sizeBytes)
	for _, name := range []string{"query_hit", "query_miss", "load_facts", "stream_query", "encode"} {
		m["server."+name+"_us"] = med("server."+name, "")
	}
	m["server.encode_bytes_per_op"] = ratio(acc.lc.encodeBytes, acc.lc.encodeN)
	var round, firstRow, writes [4][]float64
	for ci, c := range classNames {
		round[ci] = rec.durations(httpSpan[w.primary], c)
		firstRow[ci] = rec.durations("http.first_row", c)
		writes[ci] = rec.durations("http.facts", c)
	}
	m["http.query_p50_us"] = perClass(round, median)
	m["http.query_p99_us"] = perClass(round, p99)
	m["http.write_p50_us"] = perClass(writes, median)
	m["http.first_row_p50_us"] = perClass(firstRow, median)
	m["http.query_overhead_us"] = median(acc.queryOverhead)
	m["http.facts_overhead_us"] = median(acc.factsOverhead)
	m["http.first_row_overhead_us"] = median(acc.firstRowOverhead)
	m["obs.server_errors"] = cn["dl_server_errors_total"]
	m["obs.client_errors"] = cn["dl_server_client_errors_total"]
	// The HTTP path's share of each traced operation: the round trip plus the
	// client's own time, as the untraced loop would have spent it.
	opSelf := rec.selfOf("op")
	pathUS := sum(opSelf)
	for _, name := range httpSpan {
		pathUS += sum(rec.durations(name, ""))
	}
	m["bench.trace_overhead_share"] = ratio(ratio(float64(acc.ops), pathUS/1e6)-untracedOpsPerS, untracedOpsPerS)
	m["bench.client_self_us"] = median(opSelf)

	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}
