package eval

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/paper"
	"repro/internal/parser"
	"repro/internal/storage"
)

func mustStatement(t testing.TB, id string) paper.Statement {
	t.Helper()
	s, ok := paper.ByID(id)
	if !ok {
		t.Fatalf("unknown statement %s", id)
	}
	return s
}

func chainDB(t testing.TB, n int) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	if err := storage.GenChain(db, "a", n); err != nil {
		t.Fatal(err)
	}
	// Exit relation: e(x, y) iff a(x, y) — TC of the chain.
	db.Set("e", db.Rel("a").Clone())
	return db
}

func TestStrategyStrings(t *testing.T) {
	names := map[Strategy]string{
		StrategyNaive:     "naive",
		StrategySemiNaive: "seminaive",
		StrategyMagic:     "magic",
		StrategyState:     "state",
		StrategyClass:     "class",
		StrategyParallel:  "parallel",
		StrategyAuto:      "auto",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d: %s != %s", s, s, want)
		}
	}
	if len(Strategies()) != 7 {
		t.Errorf("Strategies() = %d", len(Strategies()))
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy must still render")
	}
}

func TestAnswerUnknownStrategy(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 4)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	if _, _, err := Answer(Strategy(99), sys, q, db); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestTCBoundQueryAllStrategies(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 8)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	for _, s := range Strategies() {
		ans, _, err := Answer(s, sys, q, db)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if ans.Len() != 7 {
			t.Errorf("%v: answers = %d, want 7", s, ans.Len())
		}
	}
}

func TestQueryConstantAbsentFromDB(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 4)
	q, _ := parser.ParseQuery("?- p(ghost, Y).")
	for _, s := range Strategies() {
		ans, _, err := Answer(s, sys, q, db)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if ans.Len() != 0 {
			t.Errorf("%v: answers for unknown constant = %d", s, ans.Len())
		}
	}
}

func TestQueryMismatchErrors(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 4)
	badArity, _ := parser.ParseQuery("?- p(n0, Y, Z).")
	badPred, _ := parser.ParseQuery("?- q(n0, Y).")
	for _, q := range []ast.Query{badArity, badPred} {
		for _, s := range []Strategy{StrategyMagic, StrategyState, StrategyClass} {
			if _, _, err := Answer(s, sys, q, db); err == nil {
				t.Errorf("%v accepted bad query %v", s, q)
			}
		}
	}
}

func TestMaterializeExit(t *testing.T) {
	// Two exit rules union into one exit relation; one has a join body.
	rec := parser.MustParseRule("p(X, Y) :- a(X, Z), p(Z, Y).")
	e1 := parser.MustParseRule("p(X, Y) :- base(X, Y).")
	e2 := parser.MustParseRule("p(X, Y) :- left(X, W), right(W, Y).")
	sys, err := ast.NewRecursiveSystem(rec, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	db.Insert("base", "x", "y")
	db.Insert("left", "l", "m")
	db.Insert("right", "m", "r")
	db.Insert("right", "q", "r")
	rel, err := MaterializeExit(sys, db)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("exit relation = %d tuples, want 2", rel.Len())
	}
	x, _ := db.Syms.Lookup("l")
	y, _ := db.Syms.Lookup("r")
	if !rel.Contains(storage.Tuple{x, y}) {
		t.Error("joined exit tuple missing")
	}
}

func TestMultiExitSystemsAgree(t *testing.T) {
	rec := parser.MustParseRule("p(X, Y) :- a(X, Z), p(Z, Y).")
	e1 := parser.MustParseRule("p(X, Y) :- e(X, Y).")
	e2 := parser.MustParseRule("p(X, Y) :- f(Y, X).")
	sys, err := ast.NewRecursiveSystem(rec, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 6)
	storage.GenRandomRelation(db, "e", 2, 6, 6, 3)
	storage.GenRandomRelation(db, "f", 2, 6, 6, 4)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	ref, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{StrategySemiNaive, StrategyMagic, StrategyState, StrategyClass} {
		got, _, err := Answer(s, sys, q, db)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.Equal(ref) {
			t.Errorf("%v differs with multiple exits: %d vs %d", s, got.Len(), ref.Len())
		}
	}
}

func TestStableEvalRequiresStable(t *testing.T) {
	s := mustStatement(t, "s9")
	sys := s.System()
	res := classify.MustClassify(sys.Recursive)
	db := storage.NewDatabase()
	if _, err := NewStableEval(sys, res, db); err == nil {
		t.Error("StableEval accepted an unstable system")
	}
}

func TestBoundedEvalNegativeRank(t *testing.T) {
	sys := mustStatement(t, "s10").System()
	db := storage.NewDatabase()
	q, _ := parser.ParseQuery("?- p(X, Y).")
	if _, _, err := BoundedEvalOpts(sys, -1, q, db, Opts{}); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestStatsReporting(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 12)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	_, naive, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	_, class, err := Answer(StrategyClass, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Facts <= class.Facts {
		t.Errorf("naive attempted %d inserts, compiled %d: selection pushdown should do less work",
			naive.Facts, class.Facts)
	}
	if class.Derived != 11 {
		t.Errorf("compiled derived %d answers, want 11", class.Derived)
	}
	if naive.String() == "" {
		t.Error("stats must render")
	}
}

func TestSemiNaiveMatchesNaiveOnNonLinear(t *testing.T) {
	// The bottom-up engines accept arbitrary Datalog, e.g. the non-linear
	// doubling formulation of TC — outside the paper's fragment but a good
	// substrate check.
	prog, _, err := parser.ParseProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- p(X, Z), p(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	storage.GenChain(db, "e", 10)
	a, _, err := NaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel("p").Equal(b.Rel("p")) {
		t.Error("naive and semi-naive differ on non-linear rules")
	}
	if a.Rel("p").Len() != 45 {
		t.Errorf("TC of 10-chain = %d pairs, want 45", a.Rel("p").Len())
	}
}

func TestNaiveDoesNotMutateInputDB(t *testing.T) {
	prog, _, _ := parser.ParseProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		e(zz, ww).
	`)
	db := storage.NewDatabase()
	storage.GenChain(db, "e", 4)
	before := db.Rel("e").Len()
	if _, _, err := NaiveOpts(prog, db, Opts{}); err != nil {
		t.Fatal(err)
	}
	if db.Rel("e").Len() != before {
		t.Error("program facts leaked into the caller's EDB relation")
	}
	if db.Rel("p") != nil {
		t.Error("IDB relation leaked into the caller's database")
	}
}

func TestAnswerQueryFilters(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("p", "a", "b")
	db.Insert("p", "a", "c")
	db.Insert("p", "d", "b")
	q, _ := parser.ParseQuery("?- p(a, Y).")
	ans, err := AnswerQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Errorf("answers = %d", ans.Len())
	}
	qm, _ := parser.ParseQuery("?- missing(X).")
	if ans, err := AnswerQuery(db, qm); err != nil || ans.Len() != 0 {
		t.Errorf("missing relation: %v/%v", ans.Len(), err)
	}
	qa, _ := parser.ParseQuery("?- p(a, Y, Z).")
	if _, err := AnswerQuery(db, qa); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestMagicSetsAllFreeDegenerates(t *testing.T) {
	// With no bound position, magic sets degenerate gracefully to full
	// evaluation via a 0-ary magic seed.
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 6)
	q, _ := parser.ParseQuery("?- p(X, Y).")
	got, _, err := MagicSetsOpts(sys, q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Errorf("magic all-free differs: %d vs %d", got.Len(), ref.Len())
	}
}
