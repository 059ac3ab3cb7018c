package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// The workloads. Each is a closed loop: a client sends its next operation only
// when the previous one has been answered. Clients never exceed the machine's
// cores. A repetition is a fixed, seeded sequence of operations against fresh
// servers, so every repetition does exactly the same work; a run repeats it
// until --seconds of timed work are done, and every reported value is the
// median over the repetitions.

const (
	mixedOpsPerClient = 1500 // serve_mixed, per client and repetition
	writeEvery        = 10   // serve_mixed: one operation in so many is a write
	zipfS             = 1.1  // skew of the hot-set draw
	writeFacts        = 240  // write facts prepared per class
	streamOpsPerClass = 64   // stream_firstk, per repetition
	sampleEvery       = 50   // one operation in so many is decoded and checked in full
	tracedDivisor     = 4    // the traced run repeats a quarter of the operations
	minRepetitions    = 3    // of an untraced run, however short --seconds is
)

type config struct {
	seed    int64
	seconds float64
	// scale divides every operation count and minReps is the least number
	// of untraced repetitions: 1 and minRepetitions in a real run, larger
	// and 1 in the package's tests.
	scale   int
	minReps int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload measured in one mode (traced or not).
type runResult struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Clients   int    `json:"clients"`
	OpsPerRep int    `json:"ops_per_repetition"`
	Reps      int    `json:"repetitions"`
	// WallS is the whole run, set-up, warm-up and checks included.
	WallS     float64           `json:"wall_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// RepValues keeps each repetition's value of the end-to-end metrics, for
	// -compare's spread.
	RepValues map[string][]float64 `json:"repetition_values,omitempty"`
}

// harness is the state one run shares: the generated fixtures, the HTTP
// client, the oracle over the initial facts, and the failure count.
type harness struct {
	cfg  config
	fxs  []*fixture
	hc   *http.Client
	base *oracle

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func newHarness(cfg config) (*harness, error) {
	if cfg.scale < 1 {
		cfg.scale = 1
	}
	h := &harness{cfg: cfg, fxs: buildFixtures(cfg.seed, writeFacts), hc: newHTTPClient()}
	var err error
	h.base, err = newOracle(h.fxs, nil)
	return h, err
}

func (h *harness) close() { h.hc.CloseIdleConnections() }

// count adds attempted operations and, for a non-empty message, one failure.
func (h *harness) count(attempted int, failure string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempted += attempted
	if failure != "" {
		h.failed++
		if len(h.failures) < 10 {
			h.failures = append(h.failures, failure)
		}
	}
}

func (h *harness) scaled(n int) int {
	if n /= h.cfg.scale; n < 1 {
		return 1
	}
	return n
}

// hot is the part of the fixture's hot set the run uses: all of it, except
// at the tests' tiny scale.
func (h *harness) hot(fx *fixture) []string {
	n := h.scaled(len(fx.hot))
	if n < 2 {
		n = 2
	}
	return fx.hot[:n]
}

// servedWorkload describes one of the three workloads that go through HTTP.
type servedWorkload struct {
	name    string
	clients int
	// warm is run untimed on fresh servers; its answers are compared with the
	// oracle in full.
	warm func(h *harness) []op
	// ops is client c's timed sequence; div further divides the operation
	// count (the traced run).
	ops func(h *harness, c, div int) []op
	// static says no operation changes the facts, so sampled answers can be
	// compared with the oracle over the initial facts.
	static bool
	// primary is the operation kind whose latency is the workload's
	// op_p50_us.
	primary opKind
}

var servedWorkloads = []*servedWorkload{
	{
		// 90% hot-set reads drawn Zipf from 32 queries per class, 10% one-fact
		// writes that every cached answer has to be maintained across.
		name: "serve_mixed", clients: 2, static: false, primary: opQuery,
		warm: func(h *harness) []op {
			var ops []op
			// Twice: the first pass fills the result cache, the second hits it.
			for pass := 0; pass < 2; pass++ {
				for ci, fx := range h.fxs {
					for _, q := range h.hot(fx) {
						ops = append(ops, queryOp(ci, q, pass))
					}
				}
			}
			return ops
		},
		ops: func(h *harness, c, div int) []op {
			n := h.scaled(mixedOpsPerClient / div)
			rng := rand.New(rand.NewSource(h.cfg.seed*7919 + int64(c)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(h.hot(h.fxs[0]))-1))
			nextWrite := make([]int, len(h.fxs))
			for i := range nextWrite {
				nextWrite[i] = c // client c takes writes c, c+clients, ...
			}
			ops := make([]op, n)
			for i := range ops {
				// The clients walk the servers two apart. Every writeEvery-th
				// operation is a write, the k-th one to class k mod 4, so
				// every seed has the same mix.
				ci := (i + 2*c) % len(h.fxs)
				if i%writeEvery == writeEvery-1 {
					ci = (i/writeEvery + 2*c) % len(h.fxs)
				}
				fx := h.fxs[ci]
				if i%writeEvery == writeEvery-1 && nextWrite[ci] < len(fx.writes) {
					ops[i] = writeOp(ci, fx.writes[nextWrite[ci]])
					nextWrite[ci] += 2
					continue
				}
				// Either flag: a read can pin the snapshot a concurrent write
				// is about to replace, and a fallen-back maintenance pass
				// shows as a miss, which eval.resultcache.hit_share reports.
				ops[i] = queryOp(ci, fx.hot[zipf.Uint64()], -1)
			}
			return ops
		},
	},
	{
		// Bound-first queries on constants the server has never seen: every
		// operation is a plan-cache hit and a result-cache miss.
		name: "serve_cold", clients: 1, static: true, primary: opQuery,
		warm: func(h *harness) []op {
			var ops []op
			for ci, fx := range h.fxs {
				ops = append(ops, queryOp(ci, fx.stream[0], 0))
			}
			return ops
		},
		ops: func(h *harness, c, div int) []op {
			n := h.scaled(coldQueries / div)
			var ops []op
			for i := 0; i < n; i++ {
				for ci, fx := range h.fxs {
					ops = append(ops, queryOp(ci, fx.cold[i], 0))
				}
			}
			return ops
		},
	},
	{
		// The same kernels driven through eval.Iterator with limit 10: NDJSON
		// streams of uncached queries, which a streamed miss leaves uncached.
		name: "stream_firstk", clients: 1, static: true, primary: opStream,
		warm: func(h *harness) []op {
			var ops []op
			for ci, fx := range h.fxs {
				ops = append(ops, streamOp(ci, fx.stream[0]))
			}
			return ops
		},
		ops: func(h *harness, c, div int) []op {
			n := h.scaled(streamOpsPerClass / div)
			var ops []op
			for i := 0; i < n; i++ {
				for ci, fx := range h.fxs {
					ops = append(ops, streamOp(ci, fx.stream[i%len(fx.stream)]))
				}
			}
			return ops
		},
	},
}

// repStats is what one untraced repetition measured.
type repStats struct {
	setupS, wallS  float64
	ops            int
	mallocs, bytes uint64
	heapMB         float64
	lat            latencies
}

// latencies are samples in microseconds, per operation kind and class.
type latencies [3][4][]float64

// merge appends o's samples to l.
func (l *latencies) merge(o *latencies) {
	for k := range l {
		for c := range l[k] {
			l[k][c] = append(l[k][c], o[k][c]...)
		}
	}
}

// perClass is the geometric mean over the classes of stat of each class's
// samples.
func perClass(samples [4][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, s := range samples {
		per = append(per, stat(s))
	}
	return geomean(per)
}

func p99(xs []float64) float64 { return percentile(xs, 99) }

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heldMB is what release lets go of: the live heap before it minus after.
func heldMB(release func()) float64 {
	with := heapAlloc()
	release()
	without := heapAlloc()
	if with < without {
		return 0
	}
	return float64(with-without) / (1 << 20)
}

// writesOf lists, per class, the fact lines the operation sequences write.
func writesOf(h *harness, seqs [][]op) [][]string {
	extra := make([][]string, len(h.fxs))
	for _, seq := range seqs {
		for _, o := range seq {
			if o.kind == opWrite {
				extra[o.class] = append(extra[o.class], o.text)
			}
		}
	}
	return extra
}

// warmUp runs the workload's warm-up on the nodes and compares every answer
// with the oracle over the initial facts.
func (h *harness) warmUp(w *servedWorkload, nodes []*node) {
	c := &conn{hc: h.hc}
	for _, o := range w.warm(h) {
		r := c.do(nodes[o.class], o)
		msg := c.check(nodes[o.class], o, r)
		if msg == "" {
			msg = h.verify(c, h.base, o)
		}
		h.count(1, msg)
	}
}

// verify decodes the response in c.body and compares it with the oracle.
func (h *harness) verify(c *conn, or *oracle, o op) string {
	got, err := c.answers(o)
	if err != nil {
		return fmt.Sprintf("%s: decode: %v", o.text, err)
	}
	if or == nil {
		return ""
	}
	return or.verify(o.class, o, got)
}

// checked counts the i-th timed operation after checking it: status, cached
// flag and strategy always; on every sampleEvery-th a full decode and, when
// the workload writes no facts, the oracle.
func (h *harness) checked(w *servedWorkload, c *conn, n *node, o op, r httpResult, i int) {
	msg := c.check(n, o, r)
	if msg == "" && o.kind != opWrite && i%sampleEvery == sampleEvery-1 {
		or := h.base
		if !w.static {
			or = nil
		}
		msg = h.verify(c, or, o)
	}
	h.count(1, msg)
}

// finalCheck compares every hot query's HTTP answer, maintained across all
// the repetition's writes, with naive evaluation over the final fact set.
func (h *harness) finalCheck(nodes []*node, final *oracle) {
	if final == nil {
		return
	}
	c := &conn{hc: h.hc}
	for ci, fx := range h.fxs {
		for _, q := range h.hot(fx) {
			o := queryOp(ci, q, -1)
			r := c.do(nodes[ci], o)
			msg := c.check(nodes[ci], o, r)
			if msg == "" {
				msg = h.verify(c, final, o)
			}
			h.count(1, msg)
		}
	}
}

// servedRep runs one untraced repetition: fresh servers, warm-up, the timed
// closed loop, the end-state check and the live-heap reading.
func (h *harness) servedRep(w *servedWorkload, seqs [][]op, final *oracle) (*repStats, error) {
	nodes, setupS, err := startNodes(h.fxs, h.hc)
	if err != nil {
		return nil, err
	}
	defer stopNodes(nodes)
	h.warmUp(w, nodes)

	rs := &repStats{setupS: setupS}
	per := make([]latencies, len(seqs))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, seq := range seqs {
		wg.Add(1)
		go func(seq []op, lat *latencies) {
			defer wg.Done()
			c := &conn{hc: h.hc}
			for i, o := range seq {
				n := nodes[o.class]
				r := c.do(n, o)
				lat[o.kind][o.class] = append(lat[o.kind][o.class], r.totalUS)
				h.checked(w, c, n, o, r, i)
			}
		}(seq, &per[ci])
	}
	wg.Wait()
	rs.wallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	for i := range per {
		rs.lat.merge(&per[i])
		rs.ops += len(seqs[i])
	}
	rs.mallocs, rs.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	h.finalCheck(nodes, final)

	// What the servers still hold.
	rs.heapMB = heldMB(func() {
		stopNodes(nodes)
		clear(nodes)
		h.hc.CloseIdleConnections()
	})
	return rs, nil
}

// endToEnd turns one repetition into the end-to-end metric values.
func (w *servedWorkload) endToEnd(rs *repStats) map[string]float64 {
	return map[string]float64{
		"setup_s":       rs.setupS,
		"op_p50_us":     perClass(rs.lat[w.primary], median),
		"ops_per_s":     float64(rs.ops) / rs.wallS,
		"allocs_per_op": float64(rs.mallocs) / float64(rs.ops),
		"bytes_per_op":  float64(rs.bytes) / float64(rs.ops),
		"live_heap_mb":  rs.heapMB,
	}
}

// runServed measures one served workload untraced.
func (h *harness) runServed(w *servedWorkload) (*runResult, error) {
	start := time.Now()
	seqs := make([][]op, w.clients)
	nops := 0
	for c := range seqs {
		seqs[c] = w.ops(h, c, 1)
		nops += len(seqs[c])
	}
	var final *oracle
	if !w.static {
		var err error
		if final, err = newOracle(h.fxs, writesOf(h, seqs)); err != nil {
			return nil, err
		}
	}
	res := &runResult{Workload: w.name, Clients: w.clients, OpsPerRep: nops,
		Metrics: map[string]metric{}, RepValues: map[string][]float64{}}
	for timed := 0.0; res.Reps < h.cfg.minReps || timed < h.cfg.seconds; res.Reps++ {
		rs, err := h.servedRep(w, seqs, final)
		if err != nil {
			return nil, err
		}
		timed += rs.wallS
		for name, v := range w.endToEnd(rs) {
			res.RepValues[name] = append(res.RepValues[name], v)
		}
	}
	res.aggregate()
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// aggregate turns the repetitions' values into the run's end-to-end metrics:
// the best repetition for the timings, the median for counts and sizes.
func (res *runResult) aggregate() {
	for _, d := range endToEndMetrics {
		vals := res.RepValues[d.name]
		v := median(vals)
		if d.best && len(vals) > 0 {
			v = byGoodness(vals, d.better)[0]
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
}
