package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/storage"
)

// q11: sharded fixpoint scale-out. Hash-partitions the transitive-closure
// frontier by the join column and runs per-shard semi-naive fixpoints on a
// worker pool, exchanging cross-shard deltas at the round barriers
// (internal/eval/shard.go). Two sweeps: fixpoint wall-clock at 1..N shards
// (shards and workers scaled together — the 1-shard baseline is otherwise
// already the parallel pool, which would hide the scale-out curve), and a
// multi-client QPS sweep against the real HTTP serving stack (dlserve's
// handler under httptest) with a background writer advancing the epoch.
// Every shard count is differentially checked against the sequential
// semi-naive model before it is timed. Results merge into BENCH_serve.json
// under "q11". On a single-CPU host the sweeps still run and are recorded
// — shards are logical partitions — but the speedup gates are skipped,
// since partitioning cannot beat one core.

type q11ShardPoint struct {
	Shards    int   `json:"shards"`
	Ns        int64 `json:"ns_per_fixpoint"`
	Exchanged int   `json:"exchanged"`
}

type q11Throughput struct {
	Clients int     `json:"clients"`
	QPS     float64 `json:"qps"`
}

type q11Report struct {
	Generated    string          `json:"generated"`
	Quick        bool            `json:"quick"`
	NumCPU       int             `json:"numcpu"`
	Nodes        int             `json:"nodes"`
	Edges        int             `json:"edges"`
	Answers      int             `json:"answers"`
	ShardSweep   []q11ShardPoint `json:"shard_sweep"`
	ShardScaling float64         `json:"shard_scaling"`
	Throughput   []q11Throughput `json:"qps_sweep"`
	QPSScaling   float64         `json:"qps_scaling"`
}

func (r *runner) q11() {
	r.section("Q11: sharded fixpoint — cross-shard delta exchange scale-out")

	nodes, extra := 300, 600
	sweepDur := 400 * time.Millisecond
	if r.quick {
		nodes, extra = 140, 280
		sweepDur = 120 * time.Millisecond
	}
	gmp := runtime.GOMAXPROCS(0)

	prog, _, err := parser.ParseProgram("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).")
	if err != nil {
		r.check("Q11", "workload parses", false, err.Error())
		return
	}
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", nodes, extra, 11); err != nil {
		r.check("Q11", "workload generation", false, err.Error())
		return
	}
	// Hamiltonian chain on top of the random edges so the closure is deep:
	// many rounds means many barrier exchanges, the path this experiment
	// is about.
	for i := 0; i+1 < nodes; i++ {
		if _, err := db.Insert("e", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			r.check("Q11", "workload generation", false, err.Error())
			return
		}
	}
	edges := db.Rel("e").Len()
	r.row("graph: %d nodes, %d edges; GOMAXPROCS = %d", nodes, edges, gmp)

	// Sequential reference: the model every shard count must reproduce.
	refOut, refStats, err := eval.SemiNaive(prog, db)
	if err != nil {
		r.check("Q11", "sequential reference runs", false, err.Error())
		return
	}
	refDump := refOut.Dump("p")

	// Shard sweep: shards and workers scale together from 1 to
	// max(4, GOMAXPROCS). Shards are forced (Opts.Shards >= 2) so the
	// small-input cutoff cannot silently fall back to the single-shard
	// pool and flatten the curve.
	maxShards := gmp
	if maxShards < 4 {
		maxShards = 4
	}
	shardCounts := []int{1}
	for n := 2; n <= maxShards; n *= 2 {
		shardCounts = append(shardCounts, n)
	}
	if last := shardCounts[len(shardCounts)-1]; last != maxShards {
		shardCounts = append(shardCounts, maxShards)
	}

	report := q11Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Quick:     r.quick,
		NumCPU:    gmp,
		Nodes:     nodes,
		Edges:     edges,
		Answers:   refOut.Rel("p").Len(),
	}
	equal := true
	var t1, t4 time.Duration
	fmt.Printf("  %7s  %12s  %8s  %7s  %9s\n", "shards", "fixpoint", "speedup", "rounds", "exchanged")
	for _, n := range shardCounts {
		opts := eval.Opts{Shards: n, Workers: n}
		times := make([]time.Duration, 0, r.reps())
		var out *storage.Database
		var st eval.Stats
		for i := 0; i < r.reps(); i++ {
			start := time.Now()
			out, st, err = eval.ShardedSemiNaiveOpts(prog, db, opts)
			times = append(times, time.Since(start))
			if err != nil {
				r.check("Q11", "sharded fixpoint runs", false, err.Error())
				return
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		med := times[len(times)/2]
		if out.Dump("p") != refDump || st.Derived != refStats.Derived {
			equal = false
		}
		if n > 1 && st.Exchanged == 0 {
			r.check("Q11", "round barriers exchange cross-shard deltas", false,
				fmt.Sprintf("%d shards: 0 tuples exchanged over %d rounds", n, st.Rounds))
			return
		}
		if n == 1 {
			t1 = med
		}
		if n == 4 {
			t4 = med
		}
		report.ShardSweep = append(report.ShardSweep,
			q11ShardPoint{Shards: n, Ns: med.Nanoseconds(), Exchanged: st.Exchanged})
		fmt.Printf("  %7d  %12v  %7.2fx  %7d  %9d\n",
			n, med, float64(t1)/float64(med), st.Rounds, st.Exchanged)
	}
	if t4 > 0 {
		report.ShardScaling = float64(t1) / float64(t4)
		r.row("shard scaling 1 -> 4 shards: %.2fx", report.ShardScaling)
	}

	// Per-round trace of the 4-shard run: Stats.Trace reports shard count
	// and exchanged tuples per round, the numbers the span tree carries.
	r.row("per-round trace (4 shards):")
	_, stTrace, err := eval.ShardedSemiNaiveOpts(prog, db, eval.Opts{Shards: 4, Workers: 4})
	if err != nil {
		r.check("Q11", "trace", false, err.Error())
		return
	}
	for _, rs := range stTrace.Trace {
		r.row("%v", rs)
	}

	r.check("Q11", "sharded fixpoint computes exactly the sequential semi-naive model",
		equal, fmt.Sprintf("IDB dumps and derived counts identical across shard counts %v", shardCounts))

	// QPS sweep: C clients issue bound queries over real HTTP against the
	// dlserve handler while one writer advances the epoch every ~25ms, so
	// a slice of the queries recompute through the (auto-sharded) planner
	// rather than hitting the result cache.
	qps1, qpsBest, bestClients, ok := r.q11QPS(nodes, sweepDur, &report)
	if !ok {
		return
	}
	report.QPSScaling = qpsBest / qps1
	r.row("QPS scaling 1 -> %d clients (best of sweep): %.2fx", bestClients, report.QPSScaling)

	// Merge under "q11" so Q9's top-level fields and Q10's block survive.
	merged := map[string]any{}
	if raw, err := os.ReadFile("BENCH_serve.json"); err == nil {
		json.Unmarshal(raw, &merged)
	}
	merged["q11"] = report
	if data, err := json.MarshalIndent(merged, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
			r.row("BENCH_serve.json not written: %v", err)
		} else {
			r.row("merged q11 into BENCH_serve.json")
		}
	}

	// Speedup gates are CPU-aware: partitioning one core only adds barrier
	// overhead, so the 2x claim is only enforceable with 4+ ways of real
	// parallelism. The differential and exchange checks above ran either way.
	switch {
	case gmp >= 4:
		r.check("Q11", "4-way sharding wins >=2x over the single-shard fixpoint",
			report.ShardScaling >= 2,
			fmt.Sprintf("1 shard %v vs 4 shards %v (%.2fx, %d CPUs)", t1, t4, report.ShardScaling, gmp))
	case gmp >= 2:
		r.check("Q11", "sharding wins >=1.2x with partial parallelism",
			report.ShardScaling >= 1.2,
			fmt.Sprintf("1 shard %v vs 4 shards %v (%.2fx, %d CPUs)", t1, t4, report.ShardScaling, gmp))
	default:
		r.row("single-CPU machine: shard speedup gate skipped (sweep recorded; shards are logical partitions on one core)")
	}
	if gmp > 1 {
		r.check("Q11", "served QPS scales >=2x from 1 client across the sweep",
			report.QPSScaling >= 2,
			fmt.Sprintf("%.0f -> %.0f queries/s (%.2fx) across %d CPUs", qps1, qpsBest, report.QPSScaling, gmp))
	} else {
		r.row("single-CPU machine: QPS scaling gate skipped (sweep recorded, no parallelism available)")
	}
}

// q11QPS drives the HTTP serving stack (the dlserve handler mounted on a
// real listener) with 1..max(4, GOMAXPROCS) concurrent clients plus one
// epoch-advancing writer, appending a throughput point per client count.
func (r *runner) q11QPS(nodes int, sweepDur time.Duration, report *q11Report) (qps1, qpsBest float64, bestClients int, ok bool) {
	maxClients := runtime.GOMAXPROCS(0)
	if maxClients < 4 {
		maxClients = 4
	}
	clientCounts := []int{1}
	for c := 2; c <= maxClients; c *= 2 {
		clientCounts = append(clientCounts, c)
	}
	if last := clientCounts[len(clientCounts)-1]; last != maxClients {
		clientCounts = append(clientCounts, maxClients)
	}

	var graph strings.Builder
	for i := 0; i+1 < nodes; i++ {
		fmt.Fprintf(&graph, "e(n%d, n%d).\n", i, i+1)
	}
	bestClients = 1
	for _, clients := range clientCounts {
		s, err := server.New("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
			server.Config{Registry: obs.NewRegistry()})
		if err != nil {
			r.check("Q11", "HTTP sweep server starts", false, err.Error())
			return 0, 0, 0, false
		}
		if _, err := s.LoadFacts(graph.String()); err != nil {
			r.check("Q11", "HTTP sweep server starts", false, err.Error())
			return 0, 0, 0, false
		}
		ts := httptest.NewServer(s.Handler())
		get := func(rawQuery string) error {
			resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(rawQuery))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("HTTP %d for %q", resp.StatusCode, rawQuery)
			}
			return nil
		}
		var total, failed atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // writer: fresh edge every ~25ms advances the epoch
			defer wg.Done()
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
					body := strings.NewReader(fmt.Sprintf("e(w%d, n0).", i))
					resp, err := http.Post(ts.URL+"/facts", "text/plain", body)
					if err != nil {
						failed.Add(1)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := get(fmt.Sprintf("?- p(n%d, Y).", (c*37+i)%nodes)); err != nil {
						failed.Add(1)
						return
					}
					total.Add(1)
				}
			}(c)
		}
		time.Sleep(sweepDur)
		close(stop)
		wg.Wait()
		ts.Close()
		if failed.Load() > 0 {
			r.check("Q11", "HTTP sweep runs without errors", false,
				fmt.Sprintf("%d clients: %d failures", clients, failed.Load()))
			return 0, 0, 0, false
		}
		qps := float64(total.Load()) / sweepDur.Seconds()
		report.Throughput = append(report.Throughput, q11Throughput{Clients: clients, QPS: qps})
		r.row("%2d client(s) + 1 writer over HTTP: %10.0f queries/s", clients, qps)
		if clients == 1 {
			qps1 = qps
		}
		if qps > qpsBest {
			qpsBest, bestClients = qps, clients
		}
	}
	return qps1, qpsBest, bestClients, true
}
