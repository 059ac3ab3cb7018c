package rewrite_test

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// The differential suite: NonRecursiveExpansions and ToStable outputs are
// evaluated against the direct naive fixpoint of the original system
// on generated EDBs. The exit variants below exercise SubstituteExit on
// exactly the head forms ValidateExit admits but the §2 recursive-rule
// restrictions forbid — repeated head variables (an equality constraint on
// the recursive arguments) and constant head arguments (a pinned recursive
// argument) — both of which the unification used to drop or panic on.

// exitVariants returns exit rules for an arity-2 system, from the plain
// e-exit to the adversarial head forms.
func exitVariants() []ast.Rule {
	return []ast.Rule{
		parser.MustParseRule("p(X, Y) :- e(X, Y)."),
		parser.MustParseRule("p(X, X) :- f(X)."),    // repeated head variable
		parser.MustParseRule("p(X, n0) :- f(X)."),   // constant head argument
		parser.MustParseRule("p(n1, n0) :- c(n1)."), // fully ground head
		parser.MustParseRule("p(X, Y) :- d(Y, X)."), // swapped positions
	}
}

// arity2Systems generates random arity-2 recursive rules and pairs each
// with every exit variant.
func arity2Systems(t *testing.T, rng *rand.Rand, want int) []*ast.RecursiveSystem {
	t.Helper()
	var out []*ast.RecursiveSystem
	for trial := 0; trial < 4000 && len(out) < want; trial++ {
		rule := dlgen.RandomRule(rng, dlgen.Config{MaxArity: 2, MaxAtoms: 3})
		if rule.Head.Arity() != 2 {
			continue
		}
		for _, exit := range exitVariants() {
			sys, err := ast.NewRecursiveSystem(rule.Clone(), exit.Clone())
			if err != nil {
				t.Fatalf("%v with exit %v: %v", rule, exit, err)
			}
			out = append(out, sys)
		}
	}
	if len(out) < want {
		t.Fatalf("only %d systems generated", len(out))
	}
	return out
}

// evalDB covers every EDB predicate of the system (exit bodies included)
// and guarantees the constants n0, n1 used by the ground exits exist.
func evalDB(t *testing.T, sys *ast.RecursiveSystem, seed int64) *storage.Database {
	t.Helper()
	db, err := dlgen.RandomDB(sys, 4, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDifferentialBoundedExpansions: for every bounded (rule, exit) pair,
// the finite expansion union — evaluated both as a plain program and
// through eval.BoundedEval's selection pushdown — matches the naive
// fixpoint of the original system.
func TestDifferentialBoundedExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for _, sys := range arity2Systems(t, rng, 300) {
		res := classify.MustClassify(sys.Recursive)
		if !res.Bounded || res.RankBound > 6 {
			continue
		}
		checked++
		rules, err := rewrite.NonRecursiveExpansions(sys, res.RankBound)
		if err != nil {
			t.Fatalf("%v: %v", sys.Recursive, err)
		}
		for _, r := range rules {
			if len(r.RecursiveAtoms()) != 0 {
				t.Fatalf("%v: expansion still recursive: %v", sys.Recursive, r)
			}
		}
		db := evalDB(t, sys, int64(checked))
		queries := []ast.Query{
			{Atom: ast.NewAtom("p", ast.V("QA"), ast.V("QB"))},
			dlgen.RandomQuery(rng, sys, 4),
			{Atom: ast.NewAtom("p", ast.C("n0"), ast.V("QB"))},
		}
		for _, q := range queries {
			ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatal(err)
			}
			// The expansion union as a plain program through the fixpoint
			// engine (no pushdown): pure rewrite check.
			out, _, err := eval.SemiNaiveOpts(&ast.Program{Rules: rules}, db, eval.Opts{})
			if err != nil {
				t.Fatalf("%v: %v", sys.Recursive, err)
			}
			got, err := eval.AnswerQuery(out, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%v exit %v query %v: expansions differ (%d vs %d tuples)",
					sys.Recursive, sys.Exits[0], q, got.Len(), ref.Len())
			}
			// The same union through BoundedEval's compiled path.
			fast, _, err := eval.BoundedEvalOpts(sys, res.RankBound, q, db, eval.Opts{})
			if err != nil {
				t.Fatalf("%v: %v", sys.Recursive, err)
			}
			if !fast.Equal(ref) {
				t.Fatalf("%v exit %v query %v: BoundedEval differs (%d vs %d tuples)",
					sys.Recursive, sys.Exits[0], q, fast.Len(), ref.Len())
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d bounded systems checked", checked)
	}
	t.Logf("checked %d bounded (rule, exit) pairs", checked)
}

// TestDifferentialToStable: for every transformable (rule, exit) pair, the
// stabilized system computes the same relation as the original.
func TestDifferentialToStable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	checked := 0
	for _, sys := range arity2Systems(t, rng, 400) {
		res := classify.MustClassify(sys.Recursive)
		if !res.Transformable || res.StabilizationPeriod < 2 || res.StabilizationPeriod > 4 {
			continue
		}
		checked++
		stable, err := rewrite.ToStableClassified(sys, res)
		if err != nil {
			t.Fatalf("%v: %v", sys.Recursive, err)
		}
		if !classify.MustClassify(stable.Recursive).Stable {
			t.Fatalf("%v: transformation did not stabilize", sys.Recursive)
		}
		db := evalDB(t, sys, int64(checked))
		for _, q := range []ast.Query{
			{Atom: ast.NewAtom("p", ast.V("QA"), ast.V("QB"))},
			dlgen.RandomQuery(rng, sys, 4),
		} {
			ref, _, err := eval.Answer(eval.StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eval.Answer(eval.StrategySemiNaive, stable, q, db)
			if err != nil {
				t.Fatalf("%v stabilized: %v", sys.Recursive, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%v exit %v query %v: stabilized system differs (%d vs %d tuples)",
					sys.Recursive, sys.Exits[0], q, got.Len(), ref.Len())
			}
		}
	}
	if checked < 10 {
		t.Skipf("only %d transformable systems checked", checked)
	}
	t.Logf("checked %d transformable (rule, exit) pairs", checked)
}

// TestSubstituteExitAdversarialHeads pins the unification semantics on the
// two head forms that used to be mishandled: a repeated head variable must
// equate the recursive arguments, and a constant head argument must pin
// the recursive argument throughout the surrounding rule.
func TestSubstituteExitAdversarialHeads(t *testing.T) {
	rule := parser.MustParseRule("p(X, Y) :- a(X, Z), p(Z, Y).")
	// Repeated head variable: p(W, W) :- f(W) forces Z = Y.
	nr := rewrite.SubstituteExit(rule, parser.MustParseRule("p(W, W) :- f(W)."), "@t")
	if got, want := nr.String(), "p(X, Z) :- a(X, Z), f(Z)."; got != want {
		t.Errorf("repeated head variable: %s, want %s", got, want)
	}
	// Constant head argument: p(W, n0) :- f(W) forces Y = n0.
	nr = rewrite.SubstituteExit(rule, parser.MustParseRule("p(W, n0) :- f(W)."), "@t")
	if got, want := nr.String(), "p(X, n0) :- a(X, Z), f(Z)."; got != want {
		t.Errorf("constant head argument: %s, want %s", got, want)
	}
	// Fully ground head: both recursive arguments pinned.
	nr = rewrite.SubstituteExit(rule, parser.MustParseRule("p(n1, n0) :- c(n1)."), "@t")
	if got, want := nr.String(), "p(X, n0) :- a(X, n1), c(n1)."; got != want {
		t.Errorf("ground head: %s, want %s", got, want)
	}
}
