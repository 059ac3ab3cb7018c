package repro

// One benchmark per experiment of the reproduction (see DESIGN.md §5 and
// EXPERIMENTS.md): BenchmarkFigureN regenerates the paper's figures as
// graph structures, BenchmarkExampleN re-derives each worked example's
// classification/plan/evaluation, BenchmarkTheoremSuite sweeps the theorem
// property checks, and BenchmarkQ1..Q6 measure the quantitative claims
// (compiled vs naive/semi-naive/magic, bounded cutoff, selection pushdown,
// unfolding cost, parallel semi-naive fan-out).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/igraph"
	"repro/internal/paper"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

func statement(b *testing.B, id string) paper.Statement {
	b.Helper()
	s, ok := paper.ByID(id)
	if !ok {
		b.Fatalf("unknown statement %s", id)
	}
	return s
}

func queryPattern(sys *ast.RecursiveSystem, pattern string) ast.Query {
	args := make([]ast.Term, sys.Arity())
	for i := range args {
		if i < len(pattern) && pattern[i] == 'd' {
			args[i] = ast.C("n1")
		} else {
			args[i] = ast.V(fmt.Sprintf("Q%d", i))
		}
	}
	return ast.Query{Atom: ast.NewAtom(sys.Pred(), args...)}
}

// --- Figures -------------------------------------------------------------

// BenchmarkFigure1 regenerates Figure 1: the I-graphs of (s1a) and (s1b).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ga := igraph.MustBuild(paper.S1a.Rule)
		gb := igraph.MustBuild(paper.S1b.Rule)
		if ga.G.NumVertices() != 3 || gb.G.NumVertices() != 5 {
			b.Fatal("figure 1 structure wrong")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: the 2nd resolution graph of (s2a)
// with the weight-2 directed path from x to z₁.
func BenchmarkFigure2(b *testing.B) {
	ig := igraph.MustBuild(paper.S2a.Rule)
	for i := 0; i < b.N; i++ {
		r := igraph.NewResolution(ig)
		r.Expand(2)
		if w, ok := igraph.DirectedPathWeight(r.G, "X", "Z#2"); !ok || w != 2 {
			b.Fatalf("weight x->z1 = %d (%v)", w, ok)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: the I-graph of (s8) whose max path
// weight 2 is the Ioannidis rank bound.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ig := igraph.MustBuild(paper.S8.Rule)
		if ig.G.MaxPathWeight() != 2 {
			b.Fatal("figure 3 bound wrong")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: resolution graphs of (s9) with the
// unbounded (non-zero weight, multi-directional) cycle.
func BenchmarkFigure4(b *testing.B) {
	ig := igraph.MustBuild(paper.S9.Rule)
	for i := 0; i < b.N; i++ {
		cycles := ig.G.NonTrivialCycles()
		if len(cycles) != 1 || cycles[0].IsOneDirectional() || cycles[0].AbsWeight() != 1 {
			b.Fatal("figure 4 cycle wrong")
		}
		_ = igraph.ResolutionGraph(ig, 2)
	}
}

// BenchmarkFigure5 regenerates Figure 5: resolution graphs of (s11); the
// dependent cycles keep every position determined from the 2nd expansion
// for p(d,v).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pat := adorn.Pattern(paper.S11.Rule, adorn.Adornment{true, false}, 3)
		if pat[1].String() != "dd" || pat[2].String() != "dd" {
			b.Fatalf("s11 pattern = %v", pat)
		}
		_ = igraph.ResolutionGraph(igraph.MustBuild(paper.S11.Rule), 2)
	}
}

// BenchmarkFigure6 regenerates Figure 6: resolution graphs of (s12) and the
// paper's query-form trace dvv -> ddv -> ddv.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pat := adorn.Pattern(paper.S12.Rule, adorn.Adornment{true, false, false}, 3)
		if pat[0].String() != "dvv" || pat[1].String() != "ddv" || pat[2].String() != "ddv" {
			b.Fatalf("s12 pattern = %v", pat)
		}
		if comps := igraph.ResolutionGraph(igraph.MustBuild(paper.S12.Rule), 2).Components(); len(comps) != 2 {
			b.Fatal("s12 G2 components")
		}
	}
}

// --- Worked examples -----------------------------------------------------

// exampleBench classifies the statement, compiles the plan for the query
// pattern and evaluates it with the class engine, checking against naive.
func exampleBench(b *testing.B, id, pattern, wantClass string) {
	s := statement(b, id)
	sys := s.System()
	db, err := dlgen.RandomDB(sys, 5, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := queryPattern(sys, pattern)
	ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := classify.MustClassify(sys.Recursive)
		if res.Class.Code() != wantClass {
			b.Fatalf("%s: class %s, want %s", id, res.Class.Code(), wantClass)
		}
		if _, err := plan.Compile(sys, adorn.FromQuery(q), 4); err != nil {
			b.Fatal(err)
		}
		got, _, err := eval.ClassEvalWithOpts(sys, res, q, db, eval.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(ref) {
			b.Fatalf("%s: class engine differs from naive", id)
		}
	}
}

// BenchmarkExample1 covers Example 1: (s1a) is stable (A5 = A1 ⊎ A2),
// (s1b) is an unbounded cycle (C).
func BenchmarkExample1(b *testing.B) {
	b.Run("s1a", func(b *testing.B) { exampleBench(b, "s1a", "dv", "A5") })
	b.Run("s1b", func(b *testing.B) { exampleBench(b, "s1b", "dvv", "C") })
}

// BenchmarkExample3 covers Example 3: the stable 3-D statement (s3) under
// the paper's query p(a,b,Z).
func BenchmarkExample3(b *testing.B) { exampleBench(b, "s3", "ddv", "A1") }

// BenchmarkExample4 covers Example 4: (s4a) unfolds into a stable formula
// with three exits producing the same answers.
func BenchmarkExample4(b *testing.B) {
	s := statement(b, "s4a")
	sys := s.System()
	db, err := dlgen.RandomDB(sys, 5, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := queryPattern(sys, "dvv")
	ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stable, err := rewrite.ToStable(sys)
		if err != nil {
			b.Fatal(err)
		}
		if len(stable.Exits) != 3 {
			b.Fatal("exit count")
		}
		got, _, err := eval.Answer(eval.StrategyClass, stable, q, db)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(ref) {
			b.Fatal("transformed answers differ")
		}
	}
}

// BenchmarkExample5 covers Example 5: the permutation (s5), bounded rank 2.
func BenchmarkExample5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := classify.MustClassify(paper.S5.Rule)
		if res.Class.Code() != "A4" || !res.Bounded || res.RankBound != 2 {
			b.Fatal("s5 classification")
		}
	}
}

// BenchmarkExample6 covers Example 6: (s6) with cycles 3,1,2 stabilizes at
// lcm 6 and is bounded with rank 5.
func BenchmarkExample6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := classify.MustClassify(paper.S6.Rule)
		if res.StabilizationPeriod != 6 || !res.Bounded || res.RankBound != 5 {
			b.Fatal("s6 classification")
		}
	}
}

// BenchmarkExample7 covers Example 7: (s7) with cycles 1,2,3,1 stabilizes
// at lcm 6.
func BenchmarkExample7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := classify.MustClassify(paper.S7.Rule)
		if res.StabilizationPeriod != 6 || res.Bounded {
			b.Fatal("s7 classification")
		}
		weights := map[int]int{}
		for _, c := range res.Components {
			weights[c.Weight]++
		}
		if weights[1] != 2 || weights[2] != 1 || weights[3] != 1 {
			b.Fatalf("s7 cycle weights = %v", weights)
		}
	}
}

// BenchmarkExample8 covers Example 8: the bounded statement (s8) equals its
// two non-recursive expansions (s8a'), (s8b') on data.
func BenchmarkExample8(b *testing.B) {
	s := statement(b, "s8")
	sys := s.System()
	db, err := dlgen.RandomDB(sys, 5, 12, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := queryPattern(sys, "vvvv")
	ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := eval.BoundedEvalOpts(sys, 2, q, db, eval.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(ref) {
			b.Fatal("bounded expansion differs")
		}
	}
}

// BenchmarkExample9 covers Example 9: the unbounded statement (s9) under
// both paper query forms p(d,v,v) and p(v,v,d).
func BenchmarkExample9(b *testing.B) {
	b.Run("dvv", func(b *testing.B) { exampleBench(b, "s9", "dvv", "C") })
	b.Run("vvd", func(b *testing.B) { exampleBench(b, "s9", "vvd", "C") })
}

// BenchmarkExample10 covers Example 10: (s10) has no non-trivial cycle and
// bound 2.
func BenchmarkExample10(b *testing.B) { exampleBench(b, "s10", "vv", "D") }

// BenchmarkExample11 covers Example 11: the dependent statement (s11) under
// p(d,v).
func BenchmarkExample11(b *testing.B) { exampleBench(b, "s11", "dv", "E") }

// BenchmarkExample12 covers Example 14/(s12): the mixed statement under
// p(d,v,v).
func BenchmarkExample12(b *testing.B) { exampleBench(b, "s12", "dvv", "F") }

// BenchmarkTheoremSuite sweeps the theorem property checks over random
// rules: Theorem 1 (stability), Theorem 12 (completeness) and Ioannidis's
// boundedness condition.
func BenchmarkTheoremSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		for trial := 0; trial < 20; trial++ {
			rule := dlgen.RandomRule(rng, dlgen.Config{MaxArity: 3})
			res := classify.MustClassify(rule)
			if adorn.SemanticallyStable(rule) != res.Stable {
				b.Fatalf("Theorem 1 violated by %v", rule)
			}
			if res.Class == classify.ClassTrivial {
				b.Fatalf("Theorem 12 violated by %v", rule)
			}
		}
	}
}

// --- Quantitative experiments -------------------------------------------

// BenchmarkQ1CompiledVsNaive measures the paper's motivation: the compiled
// stable plan against bottom-up evaluation for a bound transitive-closure
// query across workloads and sizes.
func BenchmarkQ1CompiledVsNaive(b *testing.B) {
	sys := statement(b, "s1a").System()
	workloads := []struct {
		name string
		gen  func(db *storage.Database, n int) error
	}{
		{"chain", func(db *storage.Database, n int) error { return storage.GenChain(db, "a", n) }},
		{"tree", func(db *storage.Database, n int) error { return storage.GenTree(db, "a", 2, nlog2(n)) }},
		{"random", func(db *storage.Database, n int) error { return storage.GenRandomGraph(db, "a", n, 2*n, 9) }},
	}
	for _, w := range workloads {
		for _, n := range []int{64, 256} {
			db := storage.NewDatabase()
			if err := w.gen(db, n); err != nil {
				b.Fatal(err)
			}
			db.Set("e", db.Rel("a").Clone())
			q := queryPattern(sys, "dv")
			q.Atom.Args[0] = ast.C("n0")
			for _, s := range []eval.Strategy{eval.StrategyNaive, eval.StrategySemiNaive, eval.StrategyClass} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", w.name, n, s), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := eval.Answer(s, sys, q, db); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func nlog2(n int) int {
	d := 0
	for n > 1 {
		n /= 2
		d++
	}
	return d
}

// BenchmarkQ2Bounded measures the bounded cutoff: evaluation cost of the
// bounded statement (s10) must stay flat as the database grows, while the
// fixpoint baseline keeps growing. Semi-naive is the baseline (plain naive
// at the largest size would run for tens of minutes per iteration — its
// divergence is already evident in the dlbench report).
func BenchmarkQ2Bounded(b *testing.B) {
	sys := statement(b, "s10").System()
	for _, n := range []int{50, 100, 200} {
		db, err := dlgen.RandomDB(sys, n, 2*n, 3)
		if err != nil {
			b.Fatal(err)
		}
		q := queryPattern(sys, "dv")
		q.Atom.Args[0] = ast.C("n0")
		for _, s := range []eval.Strategy{eval.StrategySemiNaive, eval.StrategyClass} {
			b.Run(fmt.Sprintf("n=%d/%s", n, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := eval.Answer(s, sys, q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQ3Pushdown measures the stable plan's per-cycle independence on
// statement (s3): the class engine evaluates σA^k and σB^k separately while
// the generic state engine enumerates their cross product.
func BenchmarkQ3Pushdown(b *testing.B) {
	sys := statement(b, "s3").System()
	// Sizes are deliberately small: the generic state engine enumerates the
	// cross product of the two bound cycles' frontiers (and the exit tuples
	// resolving the free position), which is exactly the blowup the paper's
	// per-cycle plans avoid.
	for _, fanout := range []int{3, 5} {
		db := storage.NewDatabase()
		// Three chains with fan-out: a on position 1, b on position 2,
		// c on position 3.
		if err := storage.GenRandomGraph(db, "a", 20, 20*fanout/2, 1); err != nil {
			b.Fatal(err)
		}
		if err := storage.GenRandomGraph(db, "b", 20, 20*fanout/2, 2); err != nil {
			b.Fatal(err)
		}
		if err := storage.GenRandomGraph(db, "c", 20, 20*fanout/2, 3); err != nil {
			b.Fatal(err)
		}
		if err := storage.GenRandomRelation(db, "e", 3, 20, 40, 4); err != nil {
			b.Fatal(err)
		}
		q := queryPattern(sys, "ddv")
		q.Atom.Args[0] = ast.C("n0")
		q.Atom.Args[1] = ast.C("n1")
		for _, s := range []eval.Strategy{eval.StrategyClass, eval.StrategyState, eval.StrategyNaive} {
			b.Run(fmt.Sprintf("fanout=%d/%s", fanout, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := eval.Answer(s, sys, q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQ4Magic compares the compiled iterate against the magic-sets
// baseline on the bound transitive-closure query.
func BenchmarkQ4Magic(b *testing.B) {
	sys := statement(b, "s1a").System()
	for _, n := range []int{128, 512} {
		db := storage.NewDatabase()
		if err := storage.GenRandomGraph(db, "a", n, 2*n, 5); err != nil {
			b.Fatal(err)
		}
		db.Set("e", db.Rel("a").Clone())
		q := queryPattern(sys, "dv")
		q.Atom.Args[0] = ast.C("n0")
		for _, s := range []eval.Strategy{eval.StrategyMagic, eval.StrategyClass, eval.StrategyState} {
			b.Run(fmt.Sprintf("n=%d/%s", n, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := eval.Answer(s, sys, q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQ5Unfold measures the Theorem-2 transformation for one-
// directional cycles of weight 2..5: unfolding cost and the compiled
// evaluation of the resulting stable system.
func BenchmarkQ5Unfold(b *testing.B) {
	// Weight 5 is omitted: the generic state engine's cost there would
	// dominate the whole suite (that blowup is the experiment's point).
	for _, w := range []int{2, 3, 4} {
		rule := cycleRule(w)
		sys, err := ast.NewRecursiveSystem(rule, ast.DefaultExit("p", w, "e"))
		if err != nil {
			b.Fatal(err)
		}
		db, err := dlgen.RandomDB(sys, 6, 12, 11)
		if err != nil {
			b.Fatal(err)
		}
		q := queryPattern(sys, "d")
		q.Atom.Args[0] = ast.C("n0")
		b.Run(fmt.Sprintf("w=%d/transform", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.ToStable(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("w=%d/class", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Answer(eval.StrategyClass, sys, q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("w=%d/state", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Answer(eval.StrategyState, sys, q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQ6ParallelSemiNaive measures the round driver's worker pool
// against the same driver on 1 worker (SemiNaiveOpts) on full
// transitive-closure materialization (the Q6 harness experiment). On a
// single-CPU host the pool is expected to tie with 1 worker; the speedup
// shows with 4+ cores.
func BenchmarkQ6ParallelSemiNaive(b *testing.B) {
	prog, _, err := parser.ParseProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", 250, 500, 7); err != nil {
		b.Fatal(err)
	}
	b.Run("1worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.SemiNaiveOpts(prog, db, eval.Opts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.ParallelSemiNaiveOpts(prog, db, eval.Opts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// cycleRule builds the weight-w generalization of statement (s4a): one
// one-directional rotational cycle over w positions.
func cycleRule(w int) ast.Rule {
	head := make([]ast.Term, w)
	rec := make([]ast.Term, w)
	for i := 0; i < w; i++ {
		head[i] = ast.V(fmt.Sprintf("X%d", i+1))
		rec[i] = ast.V(fmt.Sprintf("Y%d", i+1))
	}
	body := []ast.Atom{}
	for i := 0; i < w; i++ {
		// Connect head position i to rec position (i+1) mod w.
		body = append(body, ast.NewAtom(fmt.Sprintf("r%d", i+1),
			ast.V(fmt.Sprintf("X%d", i+1)), ast.V(fmt.Sprintf("Y%d", (i%w)+1))))
	}
	// Shift so the cycle has weight w: head i connects to rec i's
	// predecessor, matching s4a's pattern a(x1,y3), b(x2,y1), c(y2,x3).
	body = body[:0]
	for i := 0; i < w; i++ {
		j := ((i-1)+w)%w + 1
		body = append(body, ast.NewAtom(fmt.Sprintf("r%d", i+1),
			ast.V(fmt.Sprintf("X%d", i+1)), ast.V(fmt.Sprintf("Y%d", j))))
	}
	full := append(body, ast.NewAtom("p", rec...))
	return ast.NewRule(ast.NewAtom("p", head...), full...)
}

// BenchmarkAblationJoinOrder isolates the paper's evaluation principle
// ("selections before joins"): the same conjunctive query evaluated with
// the bound-first dynamic literal ordering versus strict source order,
// where a selective literal sits last.
func BenchmarkAblationJoinOrder(b *testing.B) {
	db := storage.NewDatabase()
	if err := storage.GenRandomRelation(db, "big1", 2, 60, 800, 1); err != nil {
		b.Fatal(err)
	}
	if err := storage.GenRandomRelation(db, "big2", 2, 60, 800, 2); err != nil {
		b.Fatal(err)
	}
	if err := storage.GenRandomRelation(db, "sel", 2, 60, 60, 3); err != nil {
		b.Fatal(err)
	}
	// Body with the selective literal last: sel(X, W) binds X from the
	// constant; dynamic ordering moves it first.
	rule := parser.MustParseRule("q(Y) :- big1(X, Y), big2(Y, Z), sel(W, X).")
	w := db.Rel("sel").Tuples()[0][0] // a constant guaranteed to select
	run := func(b *testing.B, ordered bool) {
		conj := eval.CompileConj(db.Syms, rule.Body)
		xID := conj.VarID("W")
		rels := eval.DBRels(db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binding := conj.NewBinding()
			binding[xID] = w
			count := 0
			if ordered {
				conj.EvalWith(rels, binding, []int{0, 1, 2}, nil, func([]storage.Value) bool { count++; return true })
			} else {
				conj.Eval(rels, binding, func([]storage.Value) bool { count++; return true })
			}
		}
	}
	b.Run("bound-first", func(b *testing.B) { run(b, false) })
	b.Run("source-order", func(b *testing.B) { run(b, true) })
}
