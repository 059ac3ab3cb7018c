package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// skewDB builds the workload the greedy per-step ordering mishandles:
//
//	r(Z, X): a small relation whose every tuple carries the hot key.
//	s(Z, W): skewHot hot-key tuples fanning into distinct W values, plus a
//	         few cold singleton keys so the column's average bucket is tiny.
//	t(W, Y): a large key-like relation holding every 31st W, so only a
//	         sliver of the hot fan-out survives the join into it.
//	link, live: a short chain over the y values, so a recursive rule over
//	         the join has genuine delta rounds.
//
// Greedy starts at the smallest relation (r), binds Z to the hot key, and
// then every s probe returns the whole hot bucket; the cost model's
// max-bucket fan-out sees the explosion upfront and orders the key-like
// joins first.
const skewHot = 1000

func skewDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	for i := 0; i < 20; i++ {
		db.Insert("r", "hot", fmt.Sprintf("x%d", i))
		db.Insert("s", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", skewHot+i))
	}
	for i := 0; i < skewHot; i++ {
		db.Insert("s", "hot", fmt.Sprintf("w%d", i))
	}
	for i := 0; i < 1200; i++ {
		db.Insert("t", fmt.Sprintf("w%d", i*31), fmt.Sprintf("y%d", i))
		db.Insert("live", fmt.Sprintf("y%d", i))
	}
	for i := 0; i+1 < 15; i++ {
		db.Insert("link", fmt.Sprintf("y%d", i), fmt.Sprintf("y%d", i+1))
	}
	db.BuildIndexes()
	return db
}

// costed attaches the order book compiled for prog from db's statistics —
// the switch between the greedy ordering and compiled orders, with
// everything else about the engine held fixed.
func costed(prog *ast.Program, db *storage.Database, opts Opts) Opts {
	opts.book = compileOrderBook(db.Syms, prog.Rules, db, "", nil)
	return opts
}

// TestCostModelSkew pins the cost model's load-bearing choice: the per-probe
// fan-out of a bound column is its MAX bucket size, not the average. On the
// skewed workload the averages are tiny (most keys are singletons) while the
// hot bucket dominates actual work; an average-based model would cost the
// greedy order as cheap and keep its mistake.
func TestCostModelSkew(t *testing.T) {
	db := skewDB(t)
	rule, err := parser.ParseRule("q(X, Y) :- r(Z, X), s(Z, W), t(W, Y).")
	if err != nil {
		t.Fatal(err)
	}

	m := newCostModel([]ast.Rule{rule}, db, "")
	c := CompileConj(db.Syms, rule.Body)

	// Fan-out of s with Z bound must be the hot bucket, not |s|/distinct(Z).
	var sAtom *compiledAtom
	for i := range c.atoms {
		if c.atoms[i].pred == "s" {
			sAtom = &c.atoms[i]
		}
	}
	bound := make([]bool, c.NumVars())
	bound[c.VarID("Z")] = true
	if fan := m.fanout(sAtom, bound); fan != skewHot {
		t.Errorf("fanout(s | Z bound) = %v, want %d (the hot bucket)", fan, skewHot)
	}

	// The search must not start at r (smallest relation, greedy's pick):
	// binding Z to the hot key explodes the s probe. Any order placing s
	// before its Z is hot-bound is fine; the canonical winner starts at t.
	order, cost := searchOrder(c, m, make([]bool, c.NumVars()), -1)
	if order == nil {
		t.Fatal("searchOrder declined a 3-atom body")
	}
	if c.atoms[order[0]].pred == "r" {
		t.Errorf("search chose greedy's order (starts at r), cost %v: the hot key was not priced in", cost)
	}

	// And the compiled order must actually do less work: A/B the same
	// engine with only the order book toggled, on the same counter. The
	// recursive rule makes the seeded orders part of the A/B.
	rec, err := parser.ParseRule("q(X, Y) :- q(X, Z2), link(Z2, Y), live(Y).")
	if err != nil {
		t.Fatal(err)
	}
	prog := &ast.Program{Rules: []ast.Rule{rule, rec}}
	_, greedy, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	_, ordered, err := SemiNaiveOpts(prog, db, costed(prog, db, Opts{}))
	if err != nil {
		t.Fatal(err)
	}
	if ordered.Visited*3 > greedy.Visited {
		t.Errorf("compiled order visited %d tuples, greedy %d: want >=3x fewer on the skew workload",
			ordered.Visited, greedy.Visited)
	}
}

// TestCompiledOrdersMatchGreedyRandom is the differential gate for the
// tentpole: with an order book attached, every engine must derive
// tuple-identical results to the greedy naive oracle across randomized
// systems, databases and adornments — a compiled order may only change the
// work, never the answer.
func TestCompiledOrdersMatchGreedyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		res := classify.MustClassify(sys.Recursive)
		if res.Transformable && res.StabilizationPeriod > 4 {
			continue
		}
		if res.Bounded && res.RankBound > 8 {
			continue
		}
		db, err := dlgen.RandomDB(sys, 5, 10, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		db.BuildIndexes()
		q := dlgen.RandomQuery(rng, sys, 5)

		ref, _, err := Answer(StrategyNaive, sys, q, db)
		if err != nil {
			t.Fatalf("%v %v naive: %v", sys.Recursive, q, err)
		}
		for _, engine := range []struct {
			name string
			run  func() (*storage.Relation, error)
		}{
			{"seminaive+cost", func() (*storage.Relation, error) {
				out, _, err := SemiNaiveOpts(sys.Program(), db, costed(sys.Program(), db, Opts{}))
				if err != nil {
					return nil, err
				}
				return AnswerQuery(out, q)
			}},
			{"naive+cost", func() (*storage.Relation, error) {
				out, _, err := NaiveOpts(sys.Program(), db, costed(sys.Program(), db, Opts{}))
				if err != nil {
					return nil, err
				}
				return AnswerQuery(out, q)
			}},
			{"parallel+cost", func() (*storage.Relation, error) {
				out, _, err := ParallelSemiNaiveOpts(sys.Program(), db, costed(sys.Program(), db, Opts{}))
				if err != nil {
					return nil, err
				}
				return AnswerQuery(out, q)
			}},
			{"auto-with-book", func() (*storage.Relation, error) {
				// The planner path compiles the plan's own book (the db is
				// non-nil), exercising whichever of the four plan classes
				// this system lands in.
				rel, _, err := NewPlanner().AnswerOpts(sys, q, db, Opts{})
				return rel, err
			}},
		} {
			got, err := engine.run()
			if err != nil {
				t.Fatalf("%v %v %s: %v", sys.Recursive, q, engine.name, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%s differs on\n  rule: %v\n  query: %v\n  class: %s\n  got %d tuples, want %d",
					engine.name, sys.Recursive, q, res.Class.Code(), got.Len(), ref.Len())
			}
		}
	}
}

// TestCompiledOrdersMatchGreedyNegation covers what the random generator
// does not: stratified negation. The compiled order must keep a negated
// literal behind the atoms that bind it, in every stratum: semi-naive with
// a book derives what the greedy naive oracle does.
func TestCompiledOrdersMatchGreedyNegation(t *testing.T) {
	progs := []string{
		`
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- reach(X, Z), edge(Z, Y).
		unreach(X, Y) :- node(X), node(Y), not reach(X, Y).
		`,
		`
		a(X) :- base(X).
		b(X) :- univ(X), not a(X).
		c(X) :- univ(X), not b(X).
		`,
		`
		p(X, Y) :- e(X, Y), not blocked(X).
		p(X, Y) :- p(X, Z), e(Z, Y), not blocked(Z).
		`,
	}
	for pi, src := range progs {
		prog, _ := parseProg(t, src)
		for seed := int64(0); seed < 4; seed++ {
			db := storage.NewDatabase()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				x := fmt.Sprintf("n%d", rng.Intn(10))
				y := fmt.Sprintf("n%d", rng.Intn(10))
				db.Insert("edge", x, y)
				db.Insert("e", x, y)
			}
			for i := 0; i < 10; i++ {
				n := fmt.Sprintf("n%d", i)
				db.Insert("node", n)
				db.Insert("univ", n)
				if i%3 == 0 {
					db.Insert("base", n)
					db.Insert("blocked", n)
				}
			}
			db.BuildIndexes()
			ref, _, err := NaiveOpts(prog, db, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := SemiNaiveOpts(prog, db, costed(prog, db, Opts{}))
			if err != nil {
				t.Fatalf("prog %d seed %d: %v", pi, seed, err)
			}
			for _, r := range prog.Rules {
				p := r.Head.Pred
				if !got.Rel(p).Equal(ref.Rel(p)) {
					t.Fatalf("prog %d seed %d: %s differs (%d vs %d tuples)",
						pi, seed, p, got.Rel(p).Len(), ref.Rel(p).Len())
				}
			}
		}
	}
}

// TestPlanCacheStatsEpoch pins the acceptance rule that a compiled order can
// never outlive its statistics: the cache key folds in Database.StatsEpoch,
// so an index rebuild makes the next lookup a miss, and the stale entry is
// pruned rather than left to leak.
func TestPlanCacheStatsEpoch(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, err := parser.ParseQuery("?- p(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 8)
	db.BuildIndexes()

	pl := NewPlanner()
	if _, hit, err := pl.PlanForEpoch(sys, q, 1, db, Opts{}); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want compile miss", hit, err)
	}
	if _, hit, err := pl.PlanForEpoch(sys, q, 1, db, Opts{}); err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v, want hit", hit, err)
	}

	// Rebuild statistics: outgrowing the last build by half plus 64 tuples
	// folds the overflow back and bumps the stats epoch.
	for i := 0; i < 70; i++ {
		db.Insert("e", fmt.Sprintf("fresh%d", i), "fresh")
	}

	if _, hit, err := pl.PlanForEpoch(sys, q, 1, db, Opts{}); err != nil || hit {
		t.Fatalf("post-rebuild lookup: hit=%v err=%v, want miss (stale stats)", hit, err)
	}
	if n := pl.Len(); n != 1 {
		t.Errorf("cache holds %d plans, want 1 (stale-stats entry pruned on insert)", n)
	}
	if inv := pl.Invalidations(); inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}
}

// TestAutoPlanReportsCost checks the planner surfaces its decision: a
// generic/stable plan compiled with a database carries a positive cost and
// the per-rule order lines in PlanInfo, and actual visits land in Stats.
func TestAutoPlanReportsCost(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y), b(Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 6)
	for i := 0; i < 6; i++ {
		db.Insert("b", fmt.Sprintf("n%d", i))
	}
	db.BuildIndexes()
	q, err := parser.ParseQuery("?- p(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	rel, st, err := NewPlanner().AnswerOpts(sys, q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("no answers")
	}
	if st.Plan == nil {
		t.Fatal("no PlanInfo")
	}
	if st.Plan.Cost <= 0 {
		t.Errorf("PlanInfo.Cost = %d, want > 0", st.Plan.Cost)
	}
	if len(st.Plan.Orders) == 0 {
		t.Error("PlanInfo.Orders empty, want one line per ordered rule")
	}
	if st.Visited <= 0 {
		t.Errorf("Stats.Visited = %d, want > 0", st.Visited)
	}
}

// TestMagicSeedLeads: when a magic-sets program runs, its seed relation
// holds the query's constants — one tuple. Told so (newCostModel's seed),
// the search leads s11's magic propagation rule with it; costed as an
// unknown IDB of size defaultN, the seed is not placed first.
func TestMagicSeedLeads(t *testing.T) {
	sys := mustStatement(t, "s11").System()
	db, err := dlgen.RandomDB(sys, 60, 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := ast.V
	rule := ast.NewRule(ast.NewAtom("magic@dd", v("X1"), v("Y1")),
		ast.NewAtom("magic@dv", v("X")), ast.NewAtom("a", v("X"), v("X1")),
		ast.NewAtom("b", v("Y"), v("Y1")), ast.NewAtom("c", v("X1"), v("Y1")))
	c := CompileConj(db.Syms, rule.Body)
	for _, seeded := range []bool{true, false} {
		seed := ""
		if seeded {
			seed = "magic@dv"
		}
		m := newCostModel([]ast.Rule{rule}, db, seed)
		order, cost := searchOrder(c, m, make([]bool, c.NumVars()), -1)
		if order == nil {
			t.Fatal("searchOrder declined a 4-atom body")
		}
		if lead := c.atoms[order[0]].pred; (lead == "magic@dv") != seeded {
			t.Errorf("seed statistics %v: order leads with %s (cost %v)", seeded, lead, cost)
		}
	}
}
