package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestCompilePlanSelection pins the class→strategy table of the auto
// planner on the paper's statements.
func TestCompilePlanSelection(t *testing.T) {
	cases := []struct {
		id   string
		kind PlanKind
	}{
		{"s1a", PlanTC},      // p(X,Y) :- a(X,Z), p(Z,Y): the TC shape
		{"s8", PlanBounded},  // bounded, rank 2
		{"s10", PlanBounded}, // bounded, rank 2
		{"s4a", PlanStable},  // one-directional cycle of weight 3
		{"s9", PlanGeneric},  // no licensed fast path
		{"s12", PlanGeneric}, // mixed cycles
	}
	for _, c := range cases {
		sys := mustStatement(t, c.id).System()
		p, err := CompilePlanOpts(sys, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if p.Kind != c.kind {
			t.Errorf("%s: plan %v (%v), want %v", c.id, p.Kind, p.Class, c.kind)
		}
		if p.Class == "" {
			t.Errorf("%s: empty class code", c.id)
		}
	}
}

func mustSystem(t testing.TB, recursive string, exits ...string) *ast.RecursiveSystem {
	t.Helper()
	rec := parser.MustParseRule(recursive)
	es := make([]ast.Rule, len(exits))
	for i, e := range exits {
		es[i] = parser.MustParseRule(e)
	}
	sys, err := ast.NewRecursiveSystem(rec, es...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDetectTCShapes enumerates shapes around the two TC orientations.
func TestDetectTCShapes(t *testing.T) {
	cases := []struct {
		rule  string
		right bool
		ok    bool
	}{
		{"p(X, Y) :- a(X, Z), p(Z, Y).", true, true},
		{"p(X, Y) :- p(X, Z), a(Z, Y).", false, true},
		// Recursive literal first, edge second — still right-linear.
		{"p(X, Y) :- p(Z, Y), a(X, Z).", true, true},
		// Head variables swapped through the recursion: not a TC chain.
		{"p(X, Y) :- a(Y, Z), p(Z, X).", false, false},
		// Extra literal: not the two-atom shape.
		{"p(X, Y) :- a(X, Z), p(Z, U), b(U, Y).", false, false},
		// Both positions flow through unchanged: no chain variable.
		{"p(X, Y) :- c(X), p(X, Y).", false, false},
	}
	for _, c := range cases {
		sys := mustSystem(t, c.rule, "p(X, Y) :- e(X, Y).")
		shape, ok := detectTC(sys)
		if ok != c.ok {
			t.Errorf("%s: detected=%v, want %v", c.rule, ok, c.ok)
			continue
		}
		if ok && shape.rightLinear != c.right {
			t.Errorf("%s: rightLinear=%v, want %v", c.rule, shape.rightLinear, c.right)
		}
	}
}

// tcTestDB builds a graph with random edges plus a random exit relation.
func tcTestDB(t testing.TB, edgePred string, domain, edges, exitTuples int, seed int64) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	if err := storage.GenRandomRelation(db, edgePred, 2, domain, edges, seed); err != nil {
		t.Fatal(err)
	}
	if err := storage.GenRandomRelation(db, "e", 2, domain, exitTuples, seed+1); err != nil {
		t.Fatal(err)
	}
	return db
}

// servedKind is the kind that answers q on a plan compiled to kind, with
// nothing stored under the planned predicate: a TC plan serves only bound
// queries, and its all-free query runs the generic plan.
func servedKind(kind PlanKind, q ast.Query) PlanKind {
	if kind == PlanTC && adorn.FromQuery(q).BoundCount() == 0 {
		return PlanGeneric
	}
	return kind
}

// TestTCEvalMatchesNaive runs the TC plan through every adornment on both
// orientations and compares against the naive fixpoint: the bound ones on
// the frontier kernel, the all-free one generically, class A5 throughout.
func TestTCEvalMatchesNaive(t *testing.T) {
	rules := []string{
		"p(X, Y) :- a(X, Z), p(Z, Y).",
		"p(X, Y) :- p(X, Z), a(Z, Y).",
	}
	queries := []string{
		"?- p(X, Y).",
		"?- p(n1, Y).",
		"?- p(X, n2).",
		"?- p(n1, n2).",
		"?- p(n0, n0).",
	}
	for _, rule := range rules {
		sys := mustSystem(t, rule, "p(X, Y) :- e(X, Y).")
		if p, err := CompilePlanOpts(sys, Opts{}); err != nil || p.Kind != PlanTC {
			t.Fatalf("%s: plan %v err %v, want PlanTC", rule, p, err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			db := tcTestDB(t, "a", 8, 14, 6, seed)
			for _, qs := range queries {
				q, err := parser.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, err := Answer(StrategyNaive, sys, q, db)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := Answer(StrategyAuto, sys, q, db)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(ref) {
					t.Errorf("%s seed %d %s: TC kernel %d tuples, naive %d",
						rule, seed, qs, got.Len(), ref.Len())
				}
				if want := servedKind(PlanTC, q); st.Plan == nil || st.Plan.Strategy != want.String() || st.Plan.Class != "A5" {
					t.Errorf("%s %s: stats plan = %+v, want %v class A5", rule, qs, st.Plan, want)
				}
			}
		}
	}
}

// TestTCEvalEdgeCases: absent edge relation (only the k = 0 stratum),
// constants missing from the database, and multi-exit systems.
func TestTCEvalEdgeCases(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).",
		"p(X, Y) :- e(X, Y).", "p(X, Y) :- g(Y, X).")
	db := storage.NewDatabase()
	storage.GenRandomRelation(db, "e", 2, 6, 5, 3)
	storage.GenRandomRelation(db, "g", 2, 6, 5, 4)
	// No "a" relation in the database at all.
	for _, qs := range []string{"?- p(X, Y).", "?- p(n1, Y).", "?- p(X, n2)."} {
		q, _ := parser.ParseQuery(qs)
		ref, _, err := Answer(StrategyNaive, sys, q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Answer(StrategyAuto, sys, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Errorf("%s: %d tuples, naive %d", qs, got.Len(), ref.Len())
		}
	}
	q, _ := parser.ParseQuery("?- p(ghost, Y).")
	if got, _, err := Answer(StrategyAuto, sys, q, db); err != nil || got.Len() != 0 {
		t.Errorf("unknown constant: %v answers, err %v", got.Len(), err)
	}
	// The second exit is no stored relation renamed: the system plans
	// generically, class kept, and a bound stream runs its magic program.
	// TestDriverModesAgree's tc-two-exits row checks its answers.
	if p, err := CompilePlanOpts(sys, Opts{}); err != nil || p.Kind != PlanGeneric || p.Class != "A5" {
		t.Fatalf("plan %+v err %v, want generic-parallel class A5", p, err)
	}
	q, _ = parser.ParseQuery("?- p(n1, Y).")
	if _, _, fix := streamSpan(t, NewPlanner(), sys, q, db.Snapshot(), 0); fix == nil || spanAttr(fix, "magic") != "dv" {
		t.Errorf("%v: fixpoint span %v, want magic=dv", q, fix)
	}
}

// TestTCKernelBeatsGenericWork: on a long chain with a bound-first query,
// the frontier kernel must touch only the reachable suffix — strictly less
// attempted work than the semi-naive fixpoint, which materializes the full
// closure before selecting. The answers are checked against the naive
// oracle.
func TestTCKernelBeatsGenericWork(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 200)
	db.Set("e", db.Rel("a").Clone())
	q, _ := parser.ParseQuery("?- p(n190, Y).")
	ref, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	_, sn, err := Answer(StrategySemiNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Answer(StrategyAuto, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Fatalf("answers differ: %d vs %d", got.Len(), ref.Len())
	}
	if st.Facts*10 > sn.Facts {
		t.Errorf("TC kernel attempted %d facts, semi-naive %d: expected ≥10× less work",
			st.Facts, sn.Facts)
	}
}

// TestAutoDifferentialRandomSystems is the auto-strategy half of the
// differential suite: whatever plan the compiler picks for a random system
// must agree with the naive oracle on random databases and queries.
func TestAutoDifferentialRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kinds := make(map[PlanKind]int)
	for trial := 0; trial < 60; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		p, err := CompilePlanOpts(sys, Opts{})
		if err != nil {
			t.Fatalf("%v: %v", sys.Recursive, err)
		}
		kinds[p.Kind]++
		db, err := dlgen.RandomDB(sys, 4, 8, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			q := dlgen.RandomQuery(rng, sys, 4)
			ref, _, err := Answer(StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := Answer(StrategyAuto, sys, q, db)
			if err != nil {
				t.Fatalf("%v %v: %v", sys.Recursive, q, err)
			}
			if !got.Equal(ref) {
				t.Errorf("%v %v (plan %v): auto %d tuples, naive %d",
					sys.Recursive, q, p.Kind, got.Len(), ref.Len())
			}
			if st.Plan == nil || st.Plan.Strategy != p.Kind.String() {
				t.Errorf("%v: stats plan %+v, want %v", sys.Recursive, st.Plan, p.Kind)
			}
		}
	}
	for _, k := range []PlanKind{PlanBounded, PlanGeneric} {
		if kinds[k] == 0 {
			t.Errorf("no random system compiled to %v: %v", k, kinds)
		}
	}
	t.Logf("plan mix over random systems: %v", kinds)
}

// TestOverRoutingTable pins Plan.over, the one routing point, on plans from
// the Planner over every plan kind × adornment (all-free, bound) × a tuple
// stored under the planned predicate (absent, present) × materialised or
// streamed: the kind that serves the query (stored tuples route a TC or
// bounded plan to its generic fallback and a fixpoint plan to itself), whether
// a magic program runs (a bound stream of a classified fixpoint plan with
// nothing stored), that the routed plan carries an order book (all were
// compiled with a database; the TC kernel enumerates no conjunction and has
// none), and that routing allocates nothing. Answered through the Planner,
// each materialised case agrees with naive evaluation and reports the routed
// plan's strategy and, when it has a book, its cost and orders — a TC plan's
// all-free query (s1a) included, which the generic fallback serves.
func TestOverRoutingTable(t *testing.T) {
	for _, f := range []struct {
		name  string
		kind  PlanKind
		build func(t *testing.T) (Source, *storage.Database, []ast.Query)
	}{
		{"s1a", PlanTC, paperFixture("s1a", 6, 14)},
		{"s10", PlanBounded, paperFixture("s10", 6, 14)},
		{"s4a", PlanStable, paperFixture("s4a", 6, 14)},
		{"s11", PlanGeneric, paperFixture("s11", 6, 14)},
		{"nonlinear", PlanGeneric, programFixture("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).",
			[][]string{{"e", "a", "b"}, {"e", "b", "c"}}, "?- t(X, Y).", "?- t(a, Y).")},
	} {
		for _, stored := range []bool{false, true} {
			src, db, queries := f.build(t)
			_, classified := src.(*ast.RecursiveSystem)
			if stored {
				args := make([]string, queries[0].Atom.Arity())
				for i := range args {
					args[i] = "zz"
				}
				if _, err := db.Insert(queries[0].Atom.Pred, args...); err != nil {
					t.Fatal(err)
				}
			}
			for i, q := range queries { // all-free, then bound
				bound := i == 1
				pl := NewPlanner()
				p, _, err := pl.planFor(src, q, db, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				for _, stream := range []bool{false, true} {
					name := fmt.Sprintf("%s/bound=%v/stored=%v/stream=%v", f.name, bound, stored, stream)
					want := f.kind
					if (f.kind == PlanTC || f.kind == PlanBounded) && stored || f.kind == PlanTC && !bound {
						want = PlanGeneric
					}
					wantMagic := classified && stream && bound && !stored && (f.kind == PlanStable || f.kind == PlanGeneric)
					rp, m := p.over(q, db, stream)
					if rp.Kind != want || rp.Class != p.Class || (m != nil) != wantMagic {
						t.Errorf("%s: routed to %v (class %q, magic %v), want %v (class %q, magic %v)",
							name, rp.Kind, rp.Class, m != nil, want, p.Class, wantMagic)
					}
					if m != nil && (m != p.magic || m.book == nil) {
						t.Errorf("%s: magic program %p (book %v), want the plan's %p with a book", name, m, m.book != nil, p.magic)
					}
					if rp.book == nil && rp.Kind != PlanTC {
						t.Errorf("%s: routed %v plan has no order book", name, rp.Kind)
					}
					if n := testing.AllocsPerRun(50, func() { p.over(q, db, stream) }); n != 0 {
						t.Errorf("%s: over allocates %v times", name, n)
					}
					if stream {
						continue
					}
					ans, st, err := pl.AnswerOpts(src, q, db, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if want := oracleRows(t, src, q, db); !rowsEqual(relRows(ans), want) {
						t.Errorf("%s: answered %d rows, oracle %d", name, ans.Len(), len(want))
					}
					if pi := st.Plan; pi.Strategy != want.String() || (pi.Cost > 0 && len(pi.Orders) > 0) != (rp.book != nil) {
						t.Errorf("%s: plan info %+v (cost %d, orders %q), want %v with a cost and orders iff it has a book", name, pi, pi.Cost, pi.Orders, want)
					}
				}
			}
		}
	}
}

// TestStablePlanRunsSourceRules: a stable plan materialises the source's
// own fixpoint. On transformable paper statements, its all-free and bound
// answers through the Planner agree with naive evaluation and take the
// rounds and derivations of the parallel engine over the source's rules, at
// no more than twice its visited tuples (the plan's order book against the
// greedy order), while the plan's bound-adornment magic program, rewritten
// from the stabilized system, still reaches a single adornment.
func TestStablePlanRunsSourceRules(t *testing.T) {
	for _, id := range []string{"s4a", "s7"} {
		src, db, queries := paperFixture(id, 6, 14)(t)
		_, ref, err := ParallelSemiNaiveOpts(src.Program(), db, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlanner()
		for _, q := range queries {
			ans, st, err := pl.AnswerOpts(src, q, db, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleRows(t, src, q, db); len(want) == 0 || !rowsEqual(relRows(ans), want) {
				t.Errorf("%s %v: answered %d rows, naive %d", id, q, ans.Len(), len(want))
			}
			if st.Plan.Strategy != PlanStable.String() || st.Rounds != ref.Rounds || st.Derived != ref.Derived || st.Visited > 2*ref.Visited {
				t.Errorf("%s %v: %s plan took rounds=%d derived=%d visited=%d, the source's rules rounds=%d derived=%d visited=%d",
					id, q, st.Plan.Strategy, st.Rounds, st.Derived, st.Visited, ref.Rounds, ref.Derived, ref.Visited)
			}
			p, _, err := pl.planFor(src, q, db, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if bound := adorn.FromQuery(q).BoundCount() > 0; bound && (p.magic == nil || p.magic.adornments != 1) {
				t.Errorf("%s %v: magic program %+v, want one adornment", id, q, p.magic)
			}
		}
	}
}

// TestPlanKindStrings keeps the trace vocabulary stable.
func TestPlanKindStrings(t *testing.T) {
	want := map[PlanKind]string{
		PlanTC:      "tc-frontier",
		PlanBounded: "bounded-union",
		PlanStable:  "stable-parallel",
		PlanGeneric: "generic-parallel",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d: %s != %s", k, k, s)
		}
	}
	if PlanKind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
	info := PlanInfo{Class: "A5", Strategy: "tc-frontier"}
	if info.String() != "class=A5 strategy=tc-frontier cache=miss" {
		t.Errorf("PlanInfo rendering: %s", info)
	}
	info.CacheHit = true
	if info.String() != "class=A5 strategy=tc-frontier cache=hit" {
		t.Errorf("PlanInfo rendering: %s", info)
	}
	var st Stats
	st.Plan = &info
	if fmt.Sprint(st) != "rounds=0 derived=0 attempted=0 class=A5 strategy=tc-frontier cache=hit" {
		t.Errorf("Stats rendering: %v", st)
	}
}
