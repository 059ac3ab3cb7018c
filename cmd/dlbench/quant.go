package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/paper"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// timeEval returns the median wall time of reps runs plus the stats of one.
func timeEval(s eval.Strategy, sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, reps int) (time.Duration, eval.Stats, int, error) {
	var stats eval.Stats
	answers := 0
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		ans, st, err := eval.Answer(s, sys, q, db)
		if err != nil {
			return 0, stats, 0, err
		}
		times = append(times, time.Since(start))
		stats = st
		answers = ans.Len()
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], stats, answers, nil
}

func (r *runner) reps() int {
	if r.quick {
		return 3
	}
	return 7
}

func boundQuery(sys *ast.RecursiveSystem, c string) ast.Query {
	args := make([]ast.Term, sys.Arity())
	args[0] = ast.C(c)
	for i := 1; i < len(args); i++ {
		args[i] = ast.V(fmt.Sprintf("Q%d", i))
	}
	return ast.Query{Atom: ast.NewAtom(sys.Pred(), args...)}
}

// q1: compiled stable plan vs bottom-up on bound TC queries across
// workloads — the paper's core motivation for compiling stable formulas.
func (r *runner) q1() {
	r.section("Q1: compiled stable plan vs naive/semi-naive (bound TC query)")
	sys := paper.S1a.System()
	sizes := []int{64, 256, 512}
	if r.quick {
		sizes = []int{64, 256}
	}
	workloads := []struct {
		name string
		gen  func(db *storage.Database, n int) error
	}{
		{"chain", func(db *storage.Database, n int) error { return storage.GenChain(db, "a", n) }},
		{"tree", func(db *storage.Database, n int) error { return storage.GenTree(db, "a", 2, log2(n)) }},
		{"random", func(db *storage.Database, n int) error { return storage.GenRandomGraph(db, "a", n, 2*n, 9) }},
	}
	fmt.Printf("  %-8s %6s  %12s %12s %12s  %9s\n", "workload", "n", "naive", "seminaive", "compiled", "speedup")
	for _, w := range workloads {
		for _, n := range sizes {
			db := storage.NewDatabase()
			if err := w.gen(db, n); err != nil {
				r.check("Q1", "workload generation", false, err.Error())
				return
			}
			db.Set("e", db.Rel("a").Clone())
			q := boundQuery(sys, "n0")
			tn, _, _, err := timeEval(eval.StrategyNaive, sys, q, db, r.reps())
			if err != nil {
				r.check("Q1", "naive", false, err.Error())
				return
			}
			ts, _, _, err := timeEval(eval.StrategySemiNaive, sys, q, db, r.reps())
			if err != nil {
				r.check("Q1", "seminaive", false, err.Error())
				return
			}
			tc, _, _, err := timeEval(eval.StrategyClass, sys, q, db, r.reps())
			if err != nil {
				r.check("Q1", "compiled", false, err.Error())
				return
			}
			fmt.Printf("  %-8s %6d  %12v %12v %12v  %8.1fx\n", w.name, n, tn, ts, tc,
				float64(tn)/float64(tc))
		}
	}
	// Shape check on the largest chain: compiled must win by a growing
	// factor (it touches only the reachable frontier).
	db := storage.NewDatabase()
	storage.GenChain(db, "a", sizes[len(sizes)-1])
	db.Set("e", db.Rel("a").Clone())
	q := boundQuery(sys, "n0")
	tn, _, _, _ := timeEval(eval.StrategyNaive, sys, q, db, r.reps())
	tc, _, _, _ := timeEval(eval.StrategyClass, sys, q, db, r.reps())
	r.check("Q1", "compiled plans beat bottom-up evaluation on bound queries; gap grows with data",
		tc < tn, fmt.Sprintf("chain n=%d: naive %v vs compiled %v (%.1fx)",
			sizes[len(sizes)-1], tn, tc, float64(tn)/float64(tc)))
}

func log2(n int) int {
	d := 0
	for n > 1 {
		n /= 2
		d++
	}
	return d
}

// q2: bounded recursion — the rank cutoff evaluates a fixed number of
// non-recursive formulas while the fixpoint baseline materializes the full
// (quadratically growing) relation.
func (r *runner) q2() {
	r.section("Q2: bounded cutoff (s10, rank 2) — cutoff vs fixpoint")
	sys := paper.S10.System()
	sizes := []int{100, 200, 400}
	if r.quick {
		sizes = []int{100, 200}
	}
	fmt.Printf("  %6s  %14s %14s  %9s %9s\n", "n", "seminaive", "bounded", "sn-rounds", "b-rounds")
	var tb, ts time.Duration
	depthsOK := true
	for _, n := range sizes {
		db, err := dlgen.RandomDB(sys, n, 2*n, 3)
		if err != nil {
			r.check("Q2", "db", false, err.Error())
			return
		}
		q := boundQuery(sys, "n0")
		var sn, sb eval.Stats
		// The fixpoint baseline is expensive by design; keep repetitions low.
		ts, sn, _, err = timeEval(eval.StrategySemiNaive, sys, q, db, 3)
		if err != nil {
			r.check("Q2", "seminaive", false, err.Error())
			return
		}
		tb, sb, _, err = timeEval(eval.StrategyClass, sys, q, db, r.reps())
		if err != nil {
			r.check("Q2", "bounded", false, err.Error())
			return
		}
		if sb.Rounds != 3 {
			depthsOK = false
		}
		fmt.Printf("  %6d  %14v %14v  %9d %9d\n", n, ts, tb, sn.Rounds, sb.Rounds)
	}
	r.check("Q2", "the rank-2 cutoff evaluates 3 non-recursive formulas at every size and beats the fixpoint",
		depthsOK && tb < ts,
		fmt.Sprintf("largest size: bounded %v vs seminaive %v (%.1fx); cutoff depth constant = 3", tb, ts,
			float64(ts)/float64(tb)))
}

// q3: the stable plan's per-cycle independence (s3): the class engine
// evaluates the cycles separately; the generic state engine crosses them.
func (r *runner) q3() {
	r.section("Q3: per-cycle independence on (s3) p(d,d,v) — class vs generic vs naive")
	sys := paper.S3.System()
	fanouts := []int{3, 4, 5}
	if r.quick {
		fanouts = []int{3, 4}
	}
	fmt.Printf("  %7s  %12s %12s %12s\n", "fanout", "class", "state", "naive")
	var tcs, tss []time.Duration
	for _, fo := range fanouts {
		db := storage.NewDatabase()
		storage.GenRandomGraph(db, "a", 20, 20*fo/2, 1)
		storage.GenRandomGraph(db, "b", 20, 20*fo/2, 2)
		storage.GenRandomGraph(db, "c", 20, 20*fo/2, 3)
		storage.GenRandomRelation(db, "e", 3, 20, 40, 4)
		q := ast.Query{Atom: ast.NewAtom("p", ast.C("n0"), ast.C("n1"), ast.V("Z"))}
		// The state engine's runtime explodes with fan-out (that is the
		// point of the experiment); keep repetitions low.
		reps := 3
		tc, _, _, err := timeEval(eval.StrategyClass, sys, q, db, reps)
		if err != nil {
			r.check("Q3", "class", false, err.Error())
			return
		}
		ts, _, _, err := timeEval(eval.StrategyState, sys, q, db, reps)
		if err != nil {
			r.check("Q3", "state", false, err.Error())
			return
		}
		tn, _, _, err := timeEval(eval.StrategyNaive, sys, q, db, reps)
		if err != nil {
			r.check("Q3", "naive", false, err.Error())
			return
		}
		fmt.Printf("  %7d  %12v %12v %12v\n", fo, tc, ts, tn)
		tcs = append(tcs, tc)
		tss = append(tss, ts)
	}
	last := len(fanouts) - 1
	r.check("Q3", "independent σ-chains avoid the cross-product of cycle frontiers",
		tcs[last] < tss[last],
		fmt.Sprintf("fanout %d: class %v vs state %v (%.1fx)", fanouts[last], tcs[last], tss[last],
			float64(tss[last])/float64(tcs[last])))
}

// q4: the compiled iterate against the magic-sets baseline: same
// asymptotics, constant factors compared.
func (r *runner) q4() {
	r.section("Q4: compiled iterate vs magic sets (bound TC on random graphs)")
	sys := paper.S1a.System()
	sizes := []int{128, 512, 2048}
	if r.quick {
		sizes = []int{128, 512}
	}
	fmt.Printf("  %6s  %12s %12s %12s\n", "n", "magic", "class", "state")
	var tm, tc time.Duration
	for _, n := range sizes {
		db := storage.NewDatabase()
		storage.GenRandomGraph(db, "a", n, 2*n, 5)
		db.Set("e", db.Rel("a").Clone())
		q := boundQuery(sys, "n0")
		var err error
		tm, _, _, err = timeEval(eval.StrategyMagic, sys, q, db, r.reps())
		if err != nil {
			r.check("Q4", "magic", false, err.Error())
			return
		}
		tc, _, _, err = timeEval(eval.StrategyClass, sys, q, db, r.reps())
		if err != nil {
			r.check("Q4", "class", false, err.Error())
			return
		}
		ts, _, _, err := timeEval(eval.StrategyState, sys, q, db, r.reps())
		if err != nil {
			r.check("Q4", "state", false, err.Error())
			return
		}
		fmt.Printf("  %6d  %12v %12v %12v\n", n, tm, tc, ts)
	}
	ratio := float64(tm) / float64(tc)
	r.check("Q4", "compiled iterate within a small constant factor of (or better than) magic sets",
		ratio > 0.2, fmt.Sprintf("largest size: magic/class ratio = %.2f", ratio))
}

// q5: the Theorem-2 unfolding across cycle weights 2..5: transformation
// cost is polynomial in L and the transformed stable plan wins over the
// generic evaluator.
func (r *runner) q5() {
	r.section("Q5: unfolding one-directional cycles of weight w (Theorem 2)")
	fmt.Printf("  %3s  %14s %12s %12s\n", "w", "transform", "class", "state")
	// The state engine's cost explodes with the cycle weight (that is the
	// experiment's point); weight 5 alone would dominate the whole harness.
	weights := []int{2, 3, 4}
	if r.quick {
		weights = []int{2, 3}
	}
	ok := true
	var prevTransform time.Duration
	for _, w := range weights {
		sys := cycleSystem(w)
		db, err := dlgen.RandomDB(sys, 6, 12, 11)
		if err != nil {
			r.check("Q5", "db", false, err.Error())
			return
		}
		q := boundQuery(sys, "n0")
		start := time.Now()
		for i := 0; i < r.reps(); i++ {
			if _, err := rewrite.ToStable(sys); err != nil {
				r.check("Q5", "transform", false, err.Error())
				return
			}
		}
		tTrans := time.Since(start) / time.Duration(r.reps())
		tClass, _, _, err := timeEval(eval.StrategyClass, sys, q, db, r.reps())
		if err != nil {
			r.check("Q5", "class", false, err.Error())
			return
		}
		tState, _, _, err := timeEval(eval.StrategyState, sys, q, db, 3)
		if err != nil {
			r.check("Q5", "state", false, err.Error())
			return
		}
		fmt.Printf("  %3d  %14v %12v %12v\n", w, tTrans, tClass, tState)
		prevTransform = tTrans
	}
	_ = prevTransform
	r.check("Q5", "unfolding works for every weight; transformed plans stay correct",
		ok, fmt.Sprintf("weights %v unfolded and evaluated", weights))
}

// q6: the round driver's worker pool against the same driver on 1 worker
// (SemiNaiveOpts) on full transitive-closure materialization. Both runs are
// checked against the naive oracle's model always; the wall-clock speedup is
// only asserted on hosts with at least 4 CPUs (a pool cannot beat 1 worker
// without cores to use).
func (r *runner) q6() {
	r.section("Q6: parallel semi-naive, worker pool vs 1 worker (full TC materialization)")
	prog, _, err := parser.ParseProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	if err != nil {
		r.check("Q6", "program", false, err.Error())
		return
	}
	sizes := [][2]int{{150, 300}, {250, 500}, {300, 600}}
	if r.quick {
		sizes = [][2]int{{120, 240}, {200, 400}}
	}
	workers := runtime.GOMAXPROCS(0)
	timeProg := func(reps int, f func() (*storage.Database, eval.Stats, error)) (time.Duration, *storage.Database, eval.Stats, error) {
		var out *storage.Database
		var st eval.Stats
		times := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			start := time.Now()
			o, s, err := f()
			if err != nil {
				return 0, nil, st, err
			}
			times = append(times, time.Since(start))
			out, st = o, s
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2], out, st, nil
	}
	dumpIDB := func(out *storage.Database) string {
		var sb strings.Builder
		for _, pred := range prog.IDBPreds() {
			sb.WriteString(out.Dump(pred))
		}
		return sb.String()
	}
	fmt.Printf("  %11s  %12s %12s  %8s  %7s %8s\n", "nodes/edges", "1 worker", "parallel", "speedup", "rounds", "derived")
	equal := true
	var tSeq, tPar time.Duration
	var lastDB *storage.Database
	for _, sz := range sizes {
		db := storage.NewDatabase()
		if err := storage.GenRandomGraph(db, "e", sz[0], sz[1], 7); err != nil {
			r.check("Q6", "workload generation", false, err.Error())
			return
		}
		outRef, stRef, err := eval.NaiveOpts(prog, db, eval.Opts{})
		if err != nil {
			r.check("Q6", "naive", false, err.Error())
			return
		}
		var outSeq, outPar *storage.Database
		var stSeq, stPar eval.Stats
		tSeq, outSeq, stSeq, err = timeProg(r.reps(), func() (*storage.Database, eval.Stats, error) {
			return eval.SemiNaiveOpts(prog, db, eval.Opts{})
		})
		if err != nil {
			r.check("Q6", "1 worker", false, err.Error())
			return
		}
		tPar, outPar, stPar, err = timeProg(r.reps(), func() (*storage.Database, eval.Stats, error) {
			return eval.ParallelSemiNaiveOpts(prog, db, eval.Opts{})
		})
		if err != nil {
			r.check("Q6", "parallel", false, err.Error())
			return
		}
		ref := dumpIDB(outRef)
		if dumpIDB(outSeq) != ref || dumpIDB(outPar) != ref || stSeq.Derived != stRef.Derived || stPar.Derived != stRef.Derived {
			equal = false
		}
		fmt.Printf("  %11s  %12v %12v  %7.2fx  %7d %8d\n",
			fmt.Sprintf("%d/%d", sz[0], sz[1]), tSeq, tPar,
			float64(tSeq)/float64(tPar), stPar.Rounds, stPar.Derived)
		lastDB = db
	}
	// Per-round trace of the largest workload.
	fmt.Printf("  per-round trace (largest workload, %d workers):\n", workers)
	_, stTrace, err := eval.ParallelSemiNaiveOpts(prog, lastDB, eval.Opts{})
	if err != nil {
		r.check("Q6", "trace", false, err.Error())
		return
	}
	for _, rs := range stTrace.Trace {
		r.row("%v", rs)
	}
	r.check("Q6", "the worker pool and 1 worker both compute exactly the naive model",
		equal, fmt.Sprintf("IDB dumps and derived counts identical to naive's across %d workloads", len(sizes)))
	if runtime.NumCPU() >= 4 {
		r.check("Q6", "the pool wins at least 1.5x over 1 worker on large TC",
			float64(tSeq)/float64(tPar) >= 1.5,
			fmt.Sprintf("largest size: 1 worker %v vs parallel %v (%.2fx, %d workers)",
				tSeq, tPar, float64(tSeq)/float64(tPar), workers))
	} else {
		r.row("speedup check skipped: host has %d CPU(s), the pool needs 4+ to win", runtime.NumCPU())
	}
}

// q7: the auto strategy — classify once, pick the fastest licensed plan,
// cache the compiled plan per (program, query form).
func (r *runner) q7() {
	r.section("Q7: auto strategy — class-driven plan selection and the plan cache")

	// Part 1: the TC shape (s1a) on a long chain, bound query. Auto must
	// route to the frontier kernel and beat the generic fixpoint engines,
	// which materialize the full closure before selecting.
	n := 2048
	if r.quick {
		n = 512
	}
	tcSys := paper.S1a.System()
	db := storage.NewDatabase()
	if err := storage.GenChain(db, "a", n); err != nil {
		r.check("Q7", "workload generation", false, err.Error())
		return
	}
	db.Set("e", db.Rel("a").Clone())
	q := boundQuery(tcSys, fmt.Sprintf("n%d", n-10))
	tSn, _, _, err := timeEval(eval.StrategySemiNaive, tcSys, q, db, 3)
	if err != nil {
		r.check("Q7", "seminaive", false, err.Error())
		return
	}
	tAuto, stAuto, _, err := timeEval(eval.StrategyAuto, tcSys, q, db, r.reps())
	if err != nil {
		r.check("Q7", "auto", false, err.Error())
		return
	}
	fmt.Printf("  %-22s %12s %12s  %9s  plan\n", "system", "seminaive", "auto", "speedup")
	fmt.Printf("  %-22s %12v %12v  %8.1fx  %v\n", fmt.Sprintf("s1a chain n=%d", n),
		tSn, tAuto, float64(tSn)/float64(tAuto), stAuto.Plan)
	r.check("Q7", "auto routes the TC shape to the frontier kernel and beats generic semi-naive",
		stAuto.Plan != nil && stAuto.Plan.Strategy == "tc-frontier" && tAuto < tSn,
		fmt.Sprintf("seminaive %v vs auto %v (%.1fx), plan %v", tSn, tAuto,
			float64(tSn)/float64(tAuto), stAuto.Plan))

	// Part 2: the bounded class (s10, rank 2). Auto must compile the finite
	// expansion union instead of iterating to fixpoint.
	bn := 300
	if r.quick {
		bn = 150
	}
	bSys := paper.S10.System()
	bdb, err := dlgen.RandomDB(bSys, bn, 2*bn, 13)
	if err != nil {
		r.check("Q7", "bounded db", false, err.Error())
		return
	}
	bq := boundQuery(bSys, "n0")
	tbSn, _, _, err := timeEval(eval.StrategySemiNaive, bSys, bq, bdb, 3)
	if err != nil {
		r.check("Q7", "bounded seminaive", false, err.Error())
		return
	}
	tbAuto, stB, _, err := timeEval(eval.StrategyAuto, bSys, bq, bdb, r.reps())
	if err != nil {
		r.check("Q7", "bounded auto", false, err.Error())
		return
	}
	fmt.Printf("  %-22s %12v %12v  %8.1fx  %v\n", fmt.Sprintf("s10 bounded n=%d", bn),
		tbSn, tbAuto, float64(tbSn)/float64(tbAuto), stB.Plan)
	r.check("Q7", "auto compiles the rank-2 cutoff for the bounded class and beats the fixpoint",
		stB.Plan != nil && stB.Plan.Strategy == "bounded-union" && tbAuto < tbSn,
		fmt.Sprintf("seminaive %v vs auto %v (%.1fx), plan %v", tbSn, tbAuto,
			float64(tbSn)/float64(tbAuto), stB.Plan))

	// Part 3: a transformable system (s7, Example 7), all-free and
	// materialized. The stable plan runs the source's rules, so its work
	// stays within twice generic semi-naive's (the cost-based order against
	// the greedy one); running the Theorem 2/4 unfolding bottom-up instead
	// visits hundreds of times more tuples for the same answers.
	sd := 7
	if r.quick {
		sd = 6
	}
	sSys := paper.S7.System()
	sdb, err := dlgen.RandomDB(sSys, sd, 2*sd+2, 3)
	if err != nil {
		r.check("Q7", "transformable db", false, err.Error())
		return
	}
	sq := freeQuery(sSys)
	tsSn, stSn, _, err := timeEval(eval.StrategySemiNaive, sSys, sq, sdb, 3)
	if err != nil {
		r.check("Q7", "transformable seminaive", false, err.Error())
		return
	}
	tsAuto, stS, _, err := timeEval(eval.StrategyAuto, sSys, sq, sdb, r.reps())
	if err != nil {
		r.check("Q7", "transformable auto", false, err.Error())
		return
	}
	fmt.Printf("  %-22s %12v %12v  %8.1fx  %v\n", fmt.Sprintf("s7 all-free d=%d", sd),
		tsSn, tsAuto, float64(tsSn)/float64(tsAuto), stS.Plan)
	r.check("Q7", "auto runs a transformable system's own rules: visited within 2x of semi-naive",
		stS.Plan != nil && stS.Plan.Strategy == "stable-parallel" && stS.Visited <= 2*stSn.Visited,
		fmt.Sprintf("visited: seminaive %d vs auto %d (%.2fx), plan %v", stSn.Visited, stS.Visited,
			float64(stS.Visited)/float64(stSn.Visited), stS.Plan))

	// Part 4: the plan cache. A fresh planner compiles the first query form
	// once; every repetition is served from the cache.
	pl := eval.NewPlanner()
	const lookups = 50
	var firstPlan, lastPlan *eval.PlanInfo
	for i := 0; i < lookups; i++ {
		_, st, err := pl.AnswerOpts(tcSys, q, db, eval.Opts{})
		if err != nil {
			r.check("Q7", "cache", false, err.Error())
			return
		}
		if i == 0 {
			firstPlan = st.Plan
		}
		lastPlan = st.Plan
	}
	hits, misses := pl.Metrics()
	r.row("plan cache over %d identical queries: first %v, then %v (%d hits / %d misses, %d plans cached)",
		lookups, firstPlan, lastPlan, hits, misses, pl.Len())
	r.check("Q7", "repeated query forms are served from the plan cache",
		misses == 1 && hits == lookups-1 && pl.Len() == 1 &&
			firstPlan != nil && !firstPlan.CacheHit && lastPlan != nil && lastPlan.CacheHit,
		fmt.Sprintf("%d hits / %d misses over %d lookups", hits, misses, lookups))
}

// cycleSystem builds the weight-w generalization of statement (s4a).
func cycleSystem(w int) *ast.RecursiveSystem {
	head := make([]ast.Term, w)
	rec := make([]ast.Term, w)
	for i := 0; i < w; i++ {
		head[i] = ast.V(fmt.Sprintf("X%d", i+1))
		rec[i] = ast.V(fmt.Sprintf("Y%d", i+1))
	}
	var body []ast.Atom
	for i := 0; i < w; i++ {
		j := ((i-1)+w)%w + 1
		body = append(body, ast.NewAtom(fmt.Sprintf("r%d", i+1),
			ast.V(fmt.Sprintf("X%d", i+1)), ast.V(fmt.Sprintf("Y%d", j))))
	}
	full := append(body, ast.NewAtom("p", rec...))
	rule := ast.NewRule(ast.NewAtom("p", head...), full...)
	sys, err := ast.NewRecursiveSystem(rule, ast.DefaultExit("p", w, "e"))
	if err != nil {
		panic(err)
	}
	return sys
}
