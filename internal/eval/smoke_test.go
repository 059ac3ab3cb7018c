package eval

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

func TestSmokeTransitiveClosure(t *testing.T) {
	prog, queries, err := parser.ParseProgram(`
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
?- p(n0, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := storage.GenChain(db, "e", 6); err != nil {
		t.Fatal(err)
	}
	out, st, err := NaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Rel("p").Len(); got != 15 { // C(6,2) pairs on a 6-chain
		t.Fatalf("naive p size = %d, want 15 (stats %v)", got, st)
	}
	ans, err := AnswerQuery(out, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 5 {
		t.Fatalf("answers = %d, want 5", ans.Len())
	}
	out2, _, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rel("p").Equal(out2.Rel("p")) {
		t.Fatal("semi-naive differs from naive")
	}
}
