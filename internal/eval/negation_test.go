package eval

import (
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

func parseProg(t *testing.T, src string) (*ast.Program, []ast.Query) {
	t.Helper()
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog, queries
}

// TestStratifiedUnreachable: the classic two-strata program — node pairs
// not connected by the transitive closure.
func TestStratifiedUnreachable(t *testing.T) {
	prog, _ := parseProg(t, `
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
		unreach(X, Y) :- node(X), node(Y), not reach(X, Y).
	`)
	db := storage.NewDatabase()
	storage.GenChain(db, "edge", 4) // n0 -> n1 -> n2 -> n3
	for i := 0; i < 4; i++ {
		db.Insert("node", []string{"n0", "n1", "n2", "n3"}[i])
	}
	for _, engine := range []func(*ast.Program, *storage.Database, Opts) (*storage.Database, Stats, error){NaiveOpts, SemiNaiveOpts} {
		out, _, err := engine(prog, db, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Rel("reach").Len(); got != 6 {
			t.Errorf("reach = %d, want 6", got)
		}
		// 16 pairs total, 6 reachable -> 10 unreachable.
		if got := out.Rel("unreach").Len(); got != 10 {
			t.Errorf("unreach = %d, want 10", got)
		}
	}
}

// TestStratifiedThreeLevels: negation stacked over negation.
func TestStratifiedThreeLevels(t *testing.T) {
	prog, _ := parseProg(t, `
		a(X) :- base(X).
		b(X) :- univ(X), not a(X).
		c(X) :- univ(X), not b(X).
	`)
	db := storage.NewDatabase()
	db.Insert("base", "x")
	db.Insert("univ", "x")
	db.Insert("univ", "y")
	out, _, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// a = {x}; b = {y}; c = {x}.
	if out.Rel("a").Len() != 1 || out.Rel("b").Len() != 1 || out.Rel("c").Len() != 1 {
		t.Errorf("a=%d b=%d c=%d, want 1,1,1",
			out.Rel("a").Len(), out.Rel("b").Len(), out.Rel("c").Len())
	}
	vx, _ := db.Syms.Lookup("x")
	if !out.Rel("c").Contains(storage.Tuple{vx}) {
		t.Error("c(x) missing")
	}
}

// TestNonStratifiableRejected: the win-move game recurses through negation.
func TestNonStratifiableRejected(t *testing.T) {
	prog, _ := parseProg(t, `
		win(X) :- move(X, Y), not win(Y).
	`)
	db := storage.NewDatabase()
	db.Insert("move", "a", "b")
	for _, engine := range []func(*ast.Program, *storage.Database, Opts) (*storage.Database, Stats, error){NaiveOpts, SemiNaiveOpts} {
		_, _, err := engine(prog, db, Opts{})
		if !errors.Is(err, ast.ErrNotStratifiable) {
			t.Errorf("got %v, want ErrNotStratifiable", err)
		}
	}
}

// TestUnsafeNegationRejected: a negated variable with no positive binding.
func TestUnsafeNegationRejected(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X) :- q(X), not r(X, Y).
	`)
	db := storage.NewDatabase()
	db.Insert("q", "a")
	db.Ensure("r", 2)
	_, _, err := NaiveOpts(prog, db, Opts{})
	if !errors.Is(err, ast.ErrUnsafeNegation) {
		t.Errorf("got %v, want ErrUnsafeNegation", err)
	}
}

// TestNegationAgainstEmptyRelation: a negated literal over an absent
// relation is vacuously true.
func TestNegationAgainstEmptyRelation(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X) :- q(X), not missing(X).
	`)
	db := storage.NewDatabase()
	db.Insert("q", "a")
	out, _, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rel("p").Len() != 1 {
		t.Errorf("p = %d, want 1", out.Rel("p").Len())
	}
}

// TestNegationWithConstants: constants inside negated literals.
func TestNegationWithConstants(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X) :- q(X), not r(X, blocked).
	`)
	db := storage.NewDatabase()
	db.Insert("q", "a")
	db.Insert("q", "b")
	db.Insert("r", "a", "blocked")
	db.Insert("r", "b", "fine")
	out, _, err := NaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vb, _ := db.Syms.Lookup("b")
	if out.Rel("p").Len() != 1 || !out.Rel("p").Contains(storage.Tuple{vb}) {
		t.Errorf("p = %v, want {b}", out.Rel("p").Len())
	}
}

// TestNaiveSemiNaiveAgreeWithNegation: both engines agree on a mixed
// program with recursion below the negation.
func TestNaiveSemiNaiveAgreeWithNegation(t *testing.T) {
	prog, _ := parseProg(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		src(X) :- e(X, Y).
		sink(Y) :- e(X, Y).
		inner(X) :- src(X), sink(X).
		boundary(X) :- src(X), not sink(X).
		boundary(X) :- sink(X), not src(X).
		far(X, Y) :- tc(X, Y), not e(X, Y).
	`)
	db := storage.NewDatabase()
	storage.GenRandomGraph(db, "e", 12, 20, 4)
	a, _, err := NaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"tc", "src", "sink", "inner", "boundary", "far"} {
		if !a.Rel(pred).Equal(b.Rel(pred)) {
			t.Errorf("%s differs between naive and semi-naive", pred)
		}
	}
	// far ⊂ tc and disjoint from e.
	a.Rel("far").Each(func(tp storage.Tuple) bool {
		if !a.Rel("tc").Contains(tp) || a.Rel("e").Contains(tp) {
			t.Errorf("far tuple %v violates definition", tp)
		}
		return true
	})
}

// TestRecursiveSystemsRejectNegation: the paper's fragment stays pure
// positive — negated literals cannot enter a recursive system.
func TestRecursiveSystemsRejectNegation(t *testing.T) {
	rec, err := parser.ParseRule("p(X, Y) :- a(X, Z), not b(Z), p(Z, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if err := ast.ValidateRecursive(rec); !errors.Is(err, ast.ErrNegationInFragment) {
		t.Errorf("got %v, want ErrNegationInFragment", err)
	}
	exit, err := parser.ParseRule("p(X, Y) :- e(X, Y), not blocked(X).")
	if err != nil {
		t.Fatal(err)
	}
	if err := ast.ValidateExit(exit, "p", 2); !errors.Is(err, ast.ErrNegationInFragment) {
		t.Errorf("exit: got %v, want ErrNegationInFragment", err)
	}
}
