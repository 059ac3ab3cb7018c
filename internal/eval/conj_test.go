package eval

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestEvalOrderedMatchesDynamic: the ablation evaluation mode (source
// order: EvalWith's identity order) must produce exactly the same
// satisfying bindings as the bound-first dynamic ordering.
func TestEvalOrderedMatchesDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 4})
		db, err := dlgen.RandomDB(sys, 4, 8, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		conj := CompileConj(db.Syms, sys.Recursive.NonRecursiveAtoms())
		rels := DBRels(db)
		collect := func(ordered bool) map[string]int {
			out := map[string]int{}
			binding := conj.NewBinding()
			f := func(b []storage.Value) bool {
				out[storage.Tuple(b).Key()]++
				return true
			}
			if ordered {
				identity := make([]int, len(conj.atoms))
				for i := range identity {
					identity[i] = i
				}
				conj.EvalWith(rels, binding, identity, nil, f)
			} else {
				conj.Eval(rels, binding, f)
			}
			return out
		}
		a, b := collect(false), collect(true)
		if len(a) != len(b) {
			t.Fatalf("%v: dynamic %d bindings, ordered %d", sys.Recursive, len(a), len(b))
		}
		for k := range a {
			if _, ok := b[k]; !ok {
				t.Fatalf("%v: binding missing under source order", sys.Recursive)
			}
		}
	}
}

// TestNegationFirstOrdering is the regression test for negation deferral:
// a safe rule whose negated literals precede (in source order) the positive
// atoms that bind their variables must evaluate without panicking and with
// identical results in both orderings, the greedy one and the cost
// planner's compiled one — the anti-join waits for the positives instead of
// being taken in source position.
func TestNegationFirstOrdering(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("q", "a")
	db.Insert("q", "b")
	db.Insert("q", "c")
	db.Insert("r", "a")
	db.Insert("s", "b", "x")
	db.Insert("s", "c", "y")
	db.Insert("blocked", "c", "y")
	for _, tc := range []struct {
		rule string
		want int
	}{
		// Negation before its binder.
		{"h(X) :- not r(X), q(X).", 2},
		// Two negations up front, bound by different later positives.
		{"h(X, Y) :- not r(X), not blocked(X, Y), q(X), s(X, Y).", 1},
		// Negation bound only by the final positive atom.
		{"h(X, Y) :- not blocked(X, Y), q(X), s(X, Y).", 1},
	} {
		rule := parser.MustParseRule(tc.rule)
		conj := CompileConj(db.Syms, rule.Body)
		for _, ordered := range []bool{false, true} {
			n := 0
			f := func([]storage.Value) bool { n++; return true }
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s (ordered=%v): panic: %v", tc.rule, ordered, r)
					}
				}()
				if ordered {
					order, _ := searchOrder(conj, newCostModel([]ast.Rule{rule}, db, ""), make([]bool, conj.NumVars()), -1)
					conj.EvalWith(DBRels(db), conj.NewBinding(), order, nil, f)
				} else {
					conj.Eval(DBRels(db), conj.NewBinding(), f)
				}
			}()
			if n != tc.want {
				t.Errorf("%s (ordered=%v): %d bindings, want %d", tc.rule, ordered, n, tc.want)
			}
		}
	}
}

// TestEvalSeeded: seeding one atom with a tuple must behave exactly like
// restricting that atom's relation to the tuple, including constant and
// repeated-variable consistency checks and binding restoration.
func TestEvalSeeded(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("e", "a", "b")
	db.Insert("e", "b", "c")
	db.Insert("p", "b", "c")
	db.Insert("p", "c", "d")
	rule := parser.MustParseRule("q(X, Y) :- e(X, Z), p(Z, Y).")
	conj := CompileConj(db.Syms, rule.Body)
	binding := conj.NewBinding()
	va, _ := db.Syms.Lookup("a")
	vb, _ := db.Syms.Lookup("b")
	n := 0
	newSeeder(conj, DBRels(db), binding, func(b []storage.Value) bool {
		n++
		return true
	}).seed(0, storage.Tuple{va, vb})
	if n != 1 {
		t.Errorf("seeded e(a, b): %d bindings, want 1 (through p(b, c))", n)
	}
	for i, v := range binding {
		if v != Unbound {
			t.Errorf("binding slot %d not restored: %v", i, v)
		}
	}
	// A seed that contradicts the atom's constant must yield nothing.
	rule2 := parser.MustParseRule("q(Y) :- e(a, Y).")
	conj2 := CompileConj(db.Syms, rule2.Body)
	n = 0
	newSeeder(conj2, DBRels(db), conj2.NewBinding(), func([]storage.Value) bool {
		n++
		return true
	}).seed(0, storage.Tuple{vb, vb})
	if n != 0 {
		t.Errorf("constant-mismatched seed yielded %d bindings", n)
	}
	// A repeated-variable atom rejects a non-diagonal seed.
	rule3 := parser.MustParseRule("q(X) :- e(X, X).")
	conj3 := CompileConj(db.Syms, rule3.Body)
	n = 0
	newSeeder(conj3, DBRels(db), conj3.NewBinding(), func([]storage.Value) bool {
		n++
		return true
	}).seed(0, storage.Tuple{va, vb})
	if n != 0 {
		t.Errorf("non-diagonal seed for e(X, X) yielded %d bindings", n)
	}
}

// TestEvalEarlyStop: yield returning false must abort enumeration and Eval
// must report the interruption.
func TestEvalEarlyStop(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 10; i++ {
		db.Insert("r", "a", "b")
		db.Insert("r", "x"+string(rune('0'+i)), "y")
	}
	rule := parser.MustParseRule("q(X) :- r(X, Y).")
	conj := CompileConj(db.Syms, rule.Body)
	n := 0
	complete := conj.Eval(DBRels(db), conj.NewBinding(), func([]storage.Value) bool {
		n++
		return n < 3
	})
	if complete {
		t.Error("Eval reported completion despite early stop")
	}
	if n != 3 {
		t.Errorf("visited %d bindings, want 3", n)
	}
}

// TestEvalRepeatedVariableInAtom: an atom using the same variable twice
// must only match tuples with equal columns.
func TestEvalRepeatedVariableInAtom(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", "a", "a")
	db.Insert("r", "a", "b")
	db.Insert("r", "c", "c")
	rule := parser.MustParseRule("q(X) :- r(X, X).")
	conj := CompileConj(db.Syms, rule.Body)
	n := 0
	conj.Eval(DBRels(db), conj.NewBinding(), func([]storage.Value) bool { n++; return true })
	if n != 2 {
		t.Errorf("diagonal matches = %d, want 2", n)
	}
}

// TestEvalConstantArgs: interned constants in atoms act as selections.
func TestEvalConstantArgs(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", "a", "b")
	db.Insert("r", "a", "c")
	db.Insert("r", "d", "e")
	rule := parser.MustParseRule("q(Y) :- r(a, Y).")
	conj := CompileConj(db.Syms, rule.Body)
	n := 0
	conj.Eval(DBRels(db), conj.NewBinding(), func([]storage.Value) bool { n++; return true })
	if n != 2 {
		t.Errorf("matches = %d, want 2", n)
	}
}

// TestEvalArityMismatchPanics: reading a literal against a relation of the
// wrong arity is a programming error and must fail loudly.
func TestEvalArityMismatchPanics(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", "a")
	rule := parser.MustParseRule("q(X, Y) :- r(X, Y).")
	conj := CompileConj(db.Syms, rule.Body)
	defer func() {
		if recover() == nil {
			t.Error("no panic on arity mismatch")
		}
	}()
	conj.Eval(DBRels(db), conj.NewBinding(), func([]storage.Value) bool { return true })
}
