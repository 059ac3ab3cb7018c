package main

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/paper"
	"repro/internal/plan"
	"repro/internal/rewrite"
)

// examples re-derives each worked example of the paper: classification,
// derived properties, the compiled plan for the paper's query form, and an
// engine cross-check on random data.
func (r *runner) examples() {
	r.section("Worked examples (s1)–(s12): classification, plans, evaluation")

	type exCase struct {
		id      string
		pattern string
		claim   string
		verify  func(res *classify.Result) (bool, string)
	}
	cases := []exCase{
		{"s1a", "dv", "strongly stable (disjoint unit cycles)", func(res *classify.Result) (bool, string) {
			return res.Stable, fmt.Sprintf("class %s, stable=%v", res.Class.Code(), res.Stable)
		}},
		{"s1b", "dvv", "unbounded cycle (class C)", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassC && !res.Bounded,
				fmt.Sprintf("class %s, bounded=%v", res.Class.Code(), res.Bounded)
		}},
		{"s2a", "dv", "stable; two disjoint unit rotational cycles", func(res *classify.Result) (bool, string) {
			return res.Stable && res.Class == classify.ClassA1,
				fmt.Sprintf("class %s, %d components", res.Class.Code(), len(res.Components))
		}},
		{"s3", "ddv", "stable, three disjoint unit cycles; compiled plan per §4.1", func(res *classify.Result) (bool, string) {
			return res.Stable && len(res.Components) == 3,
				fmt.Sprintf("class %s, %d unit cycles", res.Class.Code(), len(res.Components))
		}},
		{"s4a", "dvv", "weight-3 one-directional cycle; stable after each 3 expansions", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassA3 && res.StabilizationPeriod == 3,
				fmt.Sprintf("class %s, period %d", res.Class.Code(), res.StabilizationPeriod)
		}},
		{"s5", "dvv", "permutational weight 3; bounded (rank ≤ 2)", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassA4 && res.Bounded && res.RankBound == 2,
				fmt.Sprintf("class %s, rank %d", res.Class.Code(), res.RankBound)
		}},
		{"s6", "dvvvvv", "permutational cycles 3,1,2; stable after 6 expansions; bounded", func(res *classify.Result) (bool, string) {
			return res.Permutational && res.StabilizationPeriod == 6 && res.Bounded && res.RankBound == 5,
				fmt.Sprintf("period %d, rank %d", res.StabilizationPeriod, res.RankBound)
		}},
		{"s7", "dvvvvvv", "cycles of weights 1,2,3,1; stable after lcm=6 expansions", func(res *classify.Result) (bool, string) {
			return res.Transformable && res.StabilizationPeriod == 6,
				fmt.Sprintf("period %d", res.StabilizationPeriod)
		}},
		{"s8", "vvvv", "bounded with upper bound 2; equivalent non-recursive formulas (s8a'),(s8b')", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassB && res.RankBound == 2,
				fmt.Sprintf("class %s, rank %d", res.Class.Code(), res.RankBound)
		}},
		{"s9", "dvv", "unbounded; Cartesian-product plan for p(d,v,v)", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassC,
				fmt.Sprintf("class %s", res.Class.Code())
		}},
		{"s10", "vv", "no non-trivial cycle; bounded with upper bound 2", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassD && res.RankBound == 2,
				fmt.Sprintf("class %s, rank %d", res.Class.Code(), res.RankBound)
		}},
		{"s11", "dv", "dependent cycles; plan σE, σA-C-B-E, ∪ σA-C-B-[{A,B}-C]^k-…-E", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassE && !res.Transformable,
				fmt.Sprintf("class %s", res.Class.Code())
		}},
		{"s12", "dvv", "mixed (paper text says (D)+(A1); definitionally (E)+(A1)); plan ∪ σA-C-B-[{A,B}-C]^k-E-D^(k+1)", func(res *classify.Result) (bool, string) {
			return res.Class == classify.ClassF,
				fmt.Sprintf("class %s", res.Class.Code())
		}},
	}

	for _, c := range cases {
		s, _ := paper.ByID(c.id)
		sys := s.System()
		res := classify.MustClassify(sys.Recursive)
		ok, measured := c.verify(res)

		// Compiled plan for the paper's query form.
		a := make(adorn.Adornment, sys.Arity())
		for i := 0; i < sys.Arity() && i < len(c.pattern); i++ {
			a[i] = c.pattern[i] == 'd'
		}
		f, err := plan.Compile(sys, a, 5)
		if err != nil {
			r.check(c.id, c.claim, false, "plan compilation failed: "+err.Error())
			continue
		}

		// Engine cross-check on a random database.
		agree, detail := r.crossCheck(sys, res, c.pattern)
		r.check(c.id, c.claim, ok && agree, measured+"; "+detail)
		if f.Closed != "" {
			r.row("plan[%s]: %s", a, f.Closed)
		} else {
			r.row("plan[%s] (depth 2): %s", a, f.Depths[min(2, len(f.Depths)-1)])
		}
	}

	// Example 4's transformation artifact: the stable system with 3 exits.
	s4 := paper.S4a.System()
	stable, err := rewrite.ToStable(s4)
	if err != nil {
		r.check("E4t", "(s4) unfolds into a stable formula with exits (s4b),(s4a'),(s4c')", false, err.Error())
	} else {
		sres := classify.MustClassify(stable.Recursive)
		r.check("E4t", "(s4) unfolds into a stable formula with 3 exit rules",
			sres.Stable && len(stable.Exits) == 3,
			fmt.Sprintf("stable=%v exits=%d", sres.Stable, len(stable.Exits)))
	}

	// Example 8's non-recursive equivalents.
	s8 := paper.S8.System()
	rules, err := rewrite.NonRecursiveExpansions(s8, 2)
	if err != nil {
		r.check("E8t", "(s8) expressible as exit + 2 non-recursive formulas (s8a'),(s8b')", false, err.Error())
		return
	}
	r.check("E8t", "(s8) expressible as exit + 2 non-recursive formulas (s8a'),(s8b')",
		len(rules) == 3, fmt.Sprintf("%d non-recursive rules", len(rules)))
	for _, rule := range rules {
		r.row("%v", rule)
	}
}

// crossCheck runs every engine on a random database for the query pattern
// and compares each with the naive one.
func (r *runner) crossCheck(sys *ast.RecursiveSystem, res *classify.Result, pattern string) (bool, string) {
	size := 12
	if sys.Arity() > 4 {
		size = 6
	}
	db, err := dlgen.RandomDB(sys, 5, size, 77)
	if err != nil {
		return false, err.Error()
	}
	args := make([]ast.Term, sys.Arity())
	for i := range args {
		if i < len(pattern) && pattern[i] == 'd' {
			args[i] = ast.C("n1")
		} else {
			args[i] = ast.V(fmt.Sprintf("Q%d", i))
		}
	}
	q := ast.Query{Atom: ast.NewAtom(sys.Pred(), args...)}
	ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
	if err != nil {
		return false, err.Error()
	}
	engines := []eval.Strategy{eval.StrategySemiNaive, eval.StrategyParallel, eval.StrategyMagic, eval.StrategyState, eval.StrategyClass, eval.StrategyAuto}
	for _, st := range engines {
		got, _, err := eval.Answer(st, sys, q, db)
		if err != nil {
			return false, fmt.Sprintf("%v: %v", st, err)
		}
		if !got.Equal(ref) {
			return false, fmt.Sprintf("%v disagrees (%d vs %d tuples)", st, got.Len(), ref.Len())
		}
	}
	return true, fmt.Sprintf("%d engines agree on %v (%d answers)", 1+len(engines), q, ref.Len())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
