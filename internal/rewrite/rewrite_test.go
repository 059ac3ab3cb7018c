package rewrite_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/paper"
	"repro/internal/parser"
	"repro/internal/rewrite"
)

func TestExpandIdentityAtOne(t *testing.T) {
	sys := paper.S2a.System()
	e1, err := rewrite.Expand(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.String() != sys.Recursive.String() {
		t.Errorf("rewrite.Expand(1) = %v, want original", e1)
	}
}

// TestExpandS2Matches reproduces the paper's statement (s2c): the 2nd
// expansion of (s2a) p(x,y) :- a(x,z) ∧ p(z,u) ∧ b(u,y) is
// p(x,y) :- a(x,z) ∧ a(z,z₁) ∧ p(z₁,u₁) ∧ b(u₁,u) ∧ b(u,y).
func TestExpandS2Matches(t *testing.T) {
	sys := paper.S2a.System()
	e2, err := rewrite.Expand(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Count literal multiset by predicate.
	counts := map[string]int{}
	for _, a := range e2.Body {
		counts[a.Pred]++
	}
	if counts["a"] != 2 || counts["b"] != 2 || counts["p"] != 1 {
		t.Fatalf("literals = %v", counts)
	}
	// The recursive literal carries the renamed variables z#2, u#2.
	rec, _ := e2.RecursiveAtom()
	if rec.String() != "p(Z#2, U#2)" {
		t.Errorf("recursive literal = %v, want p(Z#2, U#2)", rec)
	}
	// a-chain: a(X,Z) and a(Z,Z#2); b-chain: b(U#2,U) and b(U,Y).
	want := map[string]bool{"a(X, Z)": true, "a(Z, Z#2)": true, "b(U#2, U)": true, "b(U, Y)": true}
	for _, at := range e2.NonRecursiveAtoms() {
		if !want[at.String()] {
			t.Errorf("unexpected literal %v", at)
		}
		delete(want, at.String())
	}
	for k := range want {
		t.Errorf("missing literal %s", k)
	}
}

func TestExpandGrowth(t *testing.T) {
	sys := paper.S3.System()
	for k := 1; k <= 5; k++ {
		e, err := rewrite.Expand(sys, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(e.NonRecursiveAtoms()); got != 3*k {
			t.Errorf("expansion %d: %d non-recursive literals, want %d", k, got, 3*k)
		}
		if err := ast.ValidateRecursive(e); err != nil {
			t.Errorf("expansion %d invalid: %v", k, err)
		}
	}
}

// TestExpandRejectsBadInput: malformed expansion requests surface as errors,
// not panics (k < 1, non-linear rules).
func TestExpandRejectsBadInput(t *testing.T) {
	if _, err := rewrite.Expand(paper.S3.System(), 0); err == nil {
		t.Error("rewrite.Expand(0) did not return an error")
	}
	if _, err := rewrite.Expand(paper.S3.System(), -3); err == nil {
		t.Error("rewrite.Expand(-3) did not return an error")
	}
	nonLinear := &ast.RecursiveSystem{
		Recursive: parser.MustParseRule("p(X, Y) :- p(X, Z), p(Z, Y)."),
		Exits:     []ast.Rule{parser.MustParseRule("p(X, Y) :- e(X, Y).")},
	}
	if _, err := rewrite.Expand(nonLinear, 2); err == nil {
		t.Error("rewrite.Expand on non-linear rule did not return an error")
	}
	if _, err := rewrite.NonRecursiveExpansions(nonLinear, 2); err == nil {
		t.Error("rewrite.NonRecursiveExpansions on non-linear rule did not return an error")
	}
	if _, err := rewrite.NonRecursiveExpansions(paper.S8.System(), -1); err == nil {
		t.Error("rewrite.NonRecursiveExpansions(-1) did not return an error")
	}
}

func TestSubstituteExit(t *testing.T) {
	sys := paper.S1a.System()
	nr := rewrite.SubstituteExit(sys.Recursive, sys.Exits[0], "@t")
	if len(nr.RecursiveAtoms()) != 0 {
		t.Fatalf("recursive literal survived: %v", nr)
	}
	if nr.String() != "p(X, Y) :- a(X, Z), e(Z, Y)." {
		t.Errorf("substituted = %v", nr)
	}
}

func TestSubstituteExitWithExtraVars(t *testing.T) {
	rec := parser.MustParseRule("p(X, Y) :- a(X, Z), p(Z, Y).")
	exit := parser.MustParseRule("p(X, Y) :- base(X, W), base(W, Y).")
	nr := rewrite.SubstituteExit(rec, exit, "@k")
	if nr.String() != "p(X, Y) :- a(X, Z), base(Z, W@k), base(W@k, Y)." {
		t.Errorf("substituted = %v", nr)
	}
}

// TestNonRecursiveExpansionsS8 reproduces the paper's (s8a') and (s8b'):
// the bounded statement (s8) with rank 2 is equivalent to its exit rule
// plus two expansions with p replaced by e.
func TestNonRecursiveExpansionsS8(t *testing.T) {
	sys := paper.S8.System()
	res := classify.MustClassify(sys.Recursive)
	if !res.Bounded || res.RankBound != 2 {
		t.Fatalf("s8 classification wrong: %+v", res)
	}
	rules, err := rewrite.NonRecursiveExpansions(sys, res.RankBound)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d, want 3 (exit + 2 expansions)", len(rules))
	}
	for _, r := range rules {
		if len(r.RecursiveAtoms()) != 0 {
			t.Errorf("rule still recursive: %v", r)
		}
	}
	// (s8b'): second expansion has literal counts a:2 b:2 c:2 e:1.
	counts := map[string]int{}
	for _, a := range rules[2].Body {
		counts[a.Pred]++
	}
	if counts["a"] != 2 || counts["b"] != 2 || counts["c"] != 2 || counts["e"] != 1 {
		t.Errorf("s8b' literal counts = %v", counts)
	}
}

// TestToStableS4 reproduces Example 4: unfolding (s4a) three times yields a
// stable formula with the original exit plus two substituted expansions
// ((s4a') and (s4c')).
func TestToStableS4(t *testing.T) {
	sys := paper.S4a.System()
	stable, err := rewrite.ToStable(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(stable.Exits) != 3 {
		t.Fatalf("exits = %d, want 3", len(stable.Exits))
	}
	res := classify.MustClassify(stable.Recursive)
	if !res.Stable {
		t.Fatalf("transformed system not stable:\n%s", res.Explain())
	}
	// The new recursive rule is the 3rd expansion: 9 non-recursive literals.
	if got := len(stable.Recursive.NonRecursiveAtoms()); got != 9 {
		t.Errorf("literals = %d, want 9", got)
	}
}

func TestToStableRejectsNonTransformable(t *testing.T) {
	for _, id := range []string{"s8", "s9", "s10", "s11", "s12"} {
		s, _ := paper.ByID(id)
		if _, err := rewrite.ToStable(s.System()); err == nil {
			t.Errorf("%s: non-transformable system transformed", id)
		}
	}
}

func TestToStableIdempotentOnStable(t *testing.T) {
	sys := paper.S3.System()
	stable, err := rewrite.ToStable(sys)
	if err != nil {
		t.Fatal(err)
	}
	if stable.Recursive.String() != sys.Recursive.String() {
		t.Errorf("stable system changed: %v", stable.Recursive)
	}
	if len(stable.Exits) != len(sys.Exits) {
		t.Errorf("exit count changed: %d", len(stable.Exits))
	}
}

// TestTheorem2EquivalenceOnData is the semantic half of Theorem 2: the
// transformed stable system computes exactly the same relation as the
// original on random databases.
func TestTheorem2EquivalenceOnData(t *testing.T) {
	for _, id := range []string{"s4a", "s5", "s6", "s7", "s1a", "s2a"} {
		s, _ := paper.ByID(id)
		sys := s.System()
		stable, err := rewrite.ToStable(sys)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		domain, size := 5, 10
		if sys.Arity() > 4 {
			domain, size = 3, 5
		}
		for seed := int64(1); seed <= 3; seed++ {
			db, err := dlgen.RandomDB(sys, domain, size, seed)
			if err != nil {
				t.Fatal(err)
			}
			q := ast.Query{Atom: allFreeQuery(sys)}
			orig, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			trans, _, err := eval.Answer(eval.StrategyNaive, stable, q, db)
			if err != nil {
				t.Fatalf("%s transformed: %v", id, err)
			}
			if !orig.Equal(trans) {
				t.Errorf("%s seed %d: transformed system differs (%d vs %d tuples)",
					id, seed, trans.Len(), orig.Len())
			}
		}
	}
}

// TestTheorem2OnRandomRules: every transformable random rule with a small
// stabilization period transforms into a stable, data-equivalent system.
func TestTheorem2OnRandomRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 300 && checked < 40; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		res := classify.MustClassify(sys.Recursive)
		if !res.Transformable || res.StabilizationPeriod > 4 || res.StabilizationPeriod < 2 {
			continue
		}
		checked++
		stable, err := rewrite.ToStable(sys)
		if err != nil {
			t.Fatalf("%v: %v", sys.Recursive, err)
		}
		if !classify.MustClassify(stable.Recursive).Stable {
			t.Fatalf("%v: transformation not stable", sys.Recursive)
		}
		db, err := dlgen.RandomDB(sys, 4, 8, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		q := ast.Query{Atom: allFreeQuery(sys)}
		orig, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
		if err != nil {
			t.Fatal(err)
		}
		trans, _, err := eval.Answer(eval.StrategyNaive, stable, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !orig.Equal(trans) {
			t.Fatalf("Theorem 2 violated by %v: %d vs %d tuples",
				sys.Recursive, orig.Len(), trans.Len())
		}
	}
	if checked < 10 {
		t.Fatalf("only %d transformable rules generated; generator too narrow", checked)
	}
}

// TestBoundedEquivalenceOnData: for bounded statements, the finite
// non-recursive set computes the full relation (Ioannidis's theorem and
// Theorems 10/11 used by the engine).
func TestBoundedEquivalenceOnData(t *testing.T) {
	for _, id := range []string{"s5", "s6", "s8", "s10"} {
		s, _ := paper.ByID(id)
		sys := s.System()
		res := classify.MustClassify(sys.Recursive)
		if !res.Bounded {
			t.Fatalf("%s not bounded", id)
		}
		rules, err := rewrite.NonRecursiveExpansions(sys, res.RankBound)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			db, err := dlgen.RandomDB(sys, 5, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			q := ast.Query{Atom: allFreeQuery(sys)}
			ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatal(err)
			}
			prog := &ast.Program{Rules: rules}
			out, _, err := eval.NaiveOpts(prog, db, eval.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eval.AnswerQuery(out, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Errorf("%s seed %d: bounded set differs (%d vs %d tuples)", id, seed, got.Len(), ref.Len())
			}
		}
	}
}

func allFreeQuery(sys *ast.RecursiveSystem) ast.Atom {
	args := make([]ast.Term, sys.Arity())
	for i := range args {
		args[i] = ast.V(strings.Repeat("Q", 1) + string(rune('0'+i)))
	}
	return ast.NewAtom(sys.Pred(), args...)
}

// TestTheorem11ConservativeBoundOnData: for random rules whose components
// mix permutational cycles with bounded/no-cycle components ({A2,A4,B,D},
// Theorem 11), the conservative rank bound must suffice: cutting the
// recursion off at the bound reproduces the full fixpoint.
func TestTheorem11ConservativeBoundOnData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 4000 && checked < 25; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 4, MaxAtoms: 3})
		res := classify.MustClassify(sys.Recursive)
		if !res.Bounded || res.RankBoundTight || res.RankBound > 8 {
			continue // only the Theorem-11 mixed case, kept small
		}
		checked++
		for seed := int64(0); seed < 2; seed++ {
			db, err := dlgen.RandomDB(sys, 4, 8, seed+int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			q := ast.Query{Atom: allFreeQuery(sys)}
			ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eval.BoundedEvalOpts(sys, res.RankBound, q, db, eval.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Fatalf("Theorem 11 conservative bound %d insufficient for %v: %d vs %d tuples",
					res.RankBound, sys.Recursive, got.Len(), ref.Len())
			}
		}
	}
	if checked < 5 {
		t.Skipf("only %d mixed bounded rules generated", checked)
	}
}
