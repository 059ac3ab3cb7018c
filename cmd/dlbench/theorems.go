package main

import (
	"fmt"
	"math/rand"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/rewrite"
)

// theorems sweeps the paper's theorems over random admissible rules.
func (r *runner) theorems() {
	r.section("Theorem property sweeps over random formulas")
	trials := 500
	if r.quick {
		trials = 100
	}

	// Theorem 1: strongly stable ⟺ disjoint unit cycles.
	rng := rand.New(rand.NewSource(1))
	violations := 0
	for i := 0; i < trials; i++ {
		rule := dlgen.RandomRule(rng, dlgen.Config{MaxArity: 3})
		res := classify.MustClassify(rule)
		if adorn.SemanticallyStable(rule) != res.Stable {
			violations++
		}
	}
	r.check("T1", "strongly stable iff only disjoint unit cycles in the I-graph",
		violations == 0, fmt.Sprintf("%d/%d random rules: semantic test == syntactic test", trials-violations, trials))

	// Theorem 2/4: transformable rules unfold into stable, data-equivalent
	// systems.
	rng = rand.New(rand.NewSource(2))
	checked, bad := 0, 0
	for i := 0; i < trials*3 && checked < trials/10; i++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		res := classify.MustClassify(sys.Recursive)
		if !res.Transformable || res.StabilizationPeriod < 2 || res.StabilizationPeriod > 4 {
			continue
		}
		checked++
		stable, err := rewrite.ToStable(sys)
		if err != nil {
			bad++
			continue
		}
		if !classify.MustClassify(stable.Recursive).Stable {
			bad++
			continue
		}
		db, err := dlgen.RandomDB(sys, 4, 8, int64(i))
		if err != nil {
			bad++
			continue
		}
		q := freeQuery(sys)
		a1, _, err1 := eval.Answer(eval.StrategyNaive, sys, q, db)
		a2, _, err2 := eval.Answer(eval.StrategyNaive, stable, q, db)
		if err1 != nil || err2 != nil || !a1.Equal(a2) {
			bad++
		}
	}
	r.check("T2/T4", "unfolding lcm(cycle weights) times yields an equivalent stable formula",
		checked > 0 && bad == 0,
		fmt.Sprintf("%d transformable rules unfolded; %d mismatches", checked, bad))

	// Theorem 10: permutational formulas are bounded with tight rank lcm−1;
	// empirically, evaluation with the rank cutoff equals the fixpoint.
	rng = rand.New(rand.NewSource(3))
	checked, bad = 0, 0
	for i := 0; i < trials*3 && checked < trials/10; i++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 4, MaxAtoms: 0})
		res := classify.MustClassify(sys.Recursive)
		if !res.Permutational || res.RankBound > 6 {
			continue
		}
		checked++
		db, err := dlgen.RandomDB(sys, 4, 10, int64(i))
		if err != nil {
			bad++
			continue
		}
		q := freeQuery(sys)
		a1, _, err1 := eval.Answer(eval.StrategyNaive, sys, q, db)
		a2, _, err2 := eval.BoundedEvalOpts(sys, res.RankBound, q, db, eval.Opts{})
		if err1 != nil || err2 != nil || !a1.Equal(a2) {
			bad++
		}
	}
	r.check("T10", "permutational combinations are bounded with rank lcm−1",
		checked > 0 && bad == 0,
		fmt.Sprintf("%d permutational rules cut off at rank; %d mismatches", checked, bad))

	// Ioannidis's theorem: no permutational patterns ⇒ bounded iff no
	// non-zero-weight cycle; the rank cutoff is empirically sufficient.
	rng = rand.New(rand.NewSource(4))
	checked, bad = 0, 0
	for i := 0; i < trials*2 && checked < trials/5; i++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		res := classify.MustClassify(sys.Recursive)
		if !res.Bounded || !res.RankBoundTight || res.RankBound > 6 {
			continue
		}
		checked++
		db, err := dlgen.RandomDB(sys, 5, 10, int64(i))
		if err != nil {
			bad++
			continue
		}
		q := freeQuery(sys)
		a1, _, err1 := eval.Answer(eval.StrategyNaive, sys, q, db)
		a2, _, err2 := eval.BoundedEvalOpts(sys, res.RankBound, q, db, eval.Opts{})
		if err1 != nil || err2 != nil || !a1.Equal(a2) {
			bad++
		}
	}
	r.check("Ioan", "bounded iff no cycle of non-zero weight; rank ≤ max path weight",
		checked > 0 && bad == 0,
		fmt.Sprintf("%d bounded rules cut off at max-path-weight rank; %d mismatches", checked, bad))

	// Theorem 12: the classification is complete over random rules.
	rng = rand.New(rand.NewSource(5))
	violations = 0
	counts := map[string]int{}
	for i := 0; i < trials; i++ {
		rule := dlgen.RandomRule(rng, dlgen.Config{})
		res := classify.MustClassify(rule)
		if res.Class == classify.ClassTrivial {
			violations++
		}
		counts[res.Class.Code()]++
	}
	r.check("T12", "every admissible formula falls into exactly one class",
		violations == 0, fmt.Sprintf("class histogram over %d rules: %v", trials, counts))
}

func freeQuery(sys *ast.RecursiveSystem) ast.Query {
	args := make([]ast.Term, sys.Arity())
	for i := range args {
		args[i] = ast.V(fmt.Sprintf("Q%d", i))
	}
	return ast.Query{Atom: ast.NewAtom(sys.Pred(), args...)}
}
