package eval

import (
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/parser"
)

// TestStrategiesAgreeOnRandomSystems is the broad-spectrum engine check:
// random admissible systems, random databases, random query adornments —
// every strategy must compute the same answers as naive evaluation.
func TestStrategiesAgreeOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		res := classify.MustClassify(sys.Recursive)
		if res.Transformable && res.StabilizationPeriod > 4 {
			continue // unfolding cost explodes; covered by targeted tests
		}
		if res.Bounded && res.RankBound > 8 {
			continue
		}
		db, err := dlgen.RandomDB(sys, 5, 10, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		q := dlgen.RandomQuery(rng, sys, 5)
		ref, _, err := Answer(StrategyNaive, sys, q, db)
		if err != nil {
			t.Fatalf("%v %v naive: %v", sys.Recursive, q, err)
		}
		for _, st := range []Strategy{StrategySemiNaive, StrategyMagic, StrategyState, StrategyClass, StrategyParallel} {
			got, _, err := Answer(st, sys, q, db)
			if err != nil {
				t.Fatalf("%v %v %v: %v", sys.Recursive, q, st, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("strategy %v differs on\n  rule: %v\n  query: %v\n  class: %s\n  got %d tuples, want %d",
					st, sys.Recursive, q, res.Class.Code(), got.Len(), ref.Len())
			}
		}
	}
}

// TestClassStrategyUsesBoundedCutoff checks that for bounded formulas the
// class engine does work proportional to the rank, not to the data depth:
// its round count must stay at rank+1 as the database grows.
func TestClassStrategyUsesBoundedCutoff(t *testing.T) {
	s := mustStatement(t, "s10")
	sys := s.System()
	res := classify.MustClassify(sys.Recursive)
	for _, size := range []int{10, 40, 160} {
		db, err := dlgen.RandomDB(sys, size, size*2, 7)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.ParseQuery("?- p(n0, Y).")
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := ClassEvalWithOpts(sys, res, q, db, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds != res.RankBound+1 {
			t.Errorf("size %d: rounds = %d, want %d (rank bound + 1)", size, st.Rounds, res.RankBound+1)
		}
	}
}
