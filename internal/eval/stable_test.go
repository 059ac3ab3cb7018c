package eval

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/parser"
	"repro/internal/storage"
)

func stableSystem(t *testing.T, src ...string) *ast.RecursiveSystem {
	t.Helper()
	rec := parser.MustParseRule(src[0])
	exits := make([]ast.Rule, 0, len(src)-1)
	for _, s := range src[1:] {
		exits = append(exits, parser.MustParseRule(s))
	}
	sys, err := ast.NewRecursiveSystem(rec, exits...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func stableAnswers(t *testing.T, sys *ast.RecursiveSystem, q ast.Query, db *storage.Database) (*storage.Relation, Stats) {
	t.Helper()
	res := classify.MustClassify(sys.Recursive)
	se, err := NewStableEval(sys, res, db)
	if err != nil {
		t.Fatal(err)
	}
	ans, st, err := se.AnswerOpts(q, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(ref) {
		t.Fatalf("stable eval differs from naive: %d vs %d tuples", ans.Len(), ref.Len())
	}
	return ans, st
}

// TestStableTrivialComponentGatesRecursion: an atom disconnected from every
// cycle is a pure existence check — when its relation is empty only depth-0
// answers survive; when non-empty it adds no constraint.
func TestStableTrivialComponentGatesRecursion(t *testing.T) {
	sys := stableSystem(t,
		"p(X, Y) :- a(X, X1), g(Z1, Z2), p(X1, Y).",
		"p(X, Y) :- e(X, Y).")
	res := classify.MustClassify(sys.Recursive)
	if !res.Stable {
		t.Fatalf("fixture not stable:\n%s", res.Explain())
	}
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 5)
	db.Insert("e", "n4", "target")
	q, _ := parser.ParseQuery("?- p(n0, Y).")

	// Empty g: the recursion contributes nothing; only the (empty at n0)
	// depth-0 exit answers remain.
	db.Ensure("g", 2)
	ans, _ := stableAnswers(t, sys, q, db)
	if ans.Len() != 0 {
		t.Errorf("with empty gate: %d answers, want 0", ans.Len())
	}

	// Non-empty g: the chain reaches n4 and the exit fires.
	db.Insert("g", "anything", "atall")
	ans2, _ := stableAnswers(t, sys, q, db)
	if ans2.Len() != 1 {
		t.Errorf("with gate satisfied: %d answers, want 1", ans2.Len())
	}
}

// TestStableSelfLoopWithFilter: an A2 self-loop whose variable also occurs
// in a pendant literal filters the value at every expansion.
func TestStableSelfLoopWithFilter(t *testing.T) {
	sys := stableSystem(t,
		"p(X, Y) :- a(X, X1), g(Y), p(X1, Y).",
		"p(X, Y) :- e(X, Y).")
	res := classify.MustClassify(sys.Recursive)
	if !res.Stable {
		t.Fatalf("fixture not stable:\n%s", res.Explain())
	}
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 4)
	db.Insert("e", "n2", "ok")
	db.Insert("e", "n2", "blocked")
	db.Insert("g", "ok")

	// Bound Y = ok passes the filter; Y = blocked dies at depth >= 1.
	qOK, _ := parser.ParseQuery("?- p(n0, ok).")
	ans, _ := stableAnswers(t, sys, qOK, db)
	if ans.Len() != 1 {
		t.Errorf("ok answers = %d, want 1", ans.Len())
	}
	qBlocked, _ := parser.ParseQuery("?- p(n0, blocked).")
	ans2, _ := stableAnswers(t, sys, qBlocked, db)
	if ans2.Len() != 0 {
		t.Errorf("blocked answers = %d, want 0", ans2.Len())
	}
	// Free Y: only the filtered value flows up.
	qFree, _ := parser.ParseQuery("?- p(n0, Y).")
	ans3, _ := stableAnswers(t, sys, qFree, db)
	if ans3.Len() != 1 {
		t.Errorf("free answers = %d, want 1", ans3.Len())
	}
}

// TestStableChainCycleWithIntermediate: a unit rotational cycle whose
// undirected return path passes through an intermediate variable (two
// hops), exercising multi-atom step conjunctions.
func TestStableChainCycleWithIntermediate(t *testing.T) {
	sys := stableSystem(t,
		"p(X, Y) :- a(X, M), b(M, X1), p(X1, Y).",
		"p(X, Y) :- e(X, Y).")
	res := classify.MustClassify(sys.Recursive)
	if !res.Stable || res.Class.Code() != "A5" {
		t.Fatalf("fixture classification:\n%s", res.Explain())
	}
	db := storage.NewDatabase()
	// a: n_i -> m_i, b: m_i -> n_{i+1} — a two-hop chain.
	for i := 0; i < 5; i++ {
		db.Insert("a", n(i), m(i))
		db.Insert("b", m(i), n(i+1))
	}
	db.Insert("e", "n3", "hit")
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	ans, st := stableAnswers(t, sys, q, db)
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
	if st.Rounds < 3 {
		t.Errorf("rounds = %d, expected the chain to advance at least 3 depths", st.Rounds)
	}
}

func n(i int) string { return "n" + string(rune('0'+i)) }
func m(i int) string { return "m" + string(rune('0'+i)) }

// TestStableUpwardChainFreePosition: a free position whose cycle is
// rotational must recover head values by walking the chain upward from the
// exit values (the paper's E - (c)^k part of the s3 plan).
func TestStableUpwardChainFreePosition(t *testing.T) {
	sys := stableSystem(t,
		"p(X, Y) :- a(X, X1), c(Y1, Y), p(X1, Y1).",
		"p(X, Y) :- e(X, Y).")
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 4)
	// c chains t0 <- t1 ... : c(Y1, Y) maps exit value upward.
	db.Insert("c", "t0", "t1")
	db.Insert("c", "t1", "t2")
	db.Insert("c", "t2", "t3")
	db.Insert("e", "n2", "t0")
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	ans, _ := stableAnswers(t, sys, q, db)
	// Depth 2 reaches e(n2, t0); Y recovered two c-steps up: t2.
	want := storage.Tuple{mustSym(t, db, "n0"), mustSym(t, db, "t2")}
	if ans.Len() != 1 || !ans.Contains(want) {
		t.Errorf("answers = %v, want exactly {(n0, t2)}", dump(db, ans))
	}
}

func mustSym(t *testing.T, db *storage.Database, name string) storage.Value {
	t.Helper()
	v, ok := db.Syms.Lookup(name)
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	return v
}

func dump(db *storage.Database, r *storage.Relation) []string {
	var out []string
	r.Each(func(tp storage.Tuple) bool {
		s := ""
		for i, v := range tp {
			if i > 0 {
				s += ","
			}
			s += db.Syms.Name(v)
		}
		out = append(out, s)
		return true
	})
	return out
}

// TestStableAllFreeQuery: with no bound position the stable evaluator must
// still terminate and match naive (the W chains drive everything).
func TestStableAllFreeQuery(t *testing.T) {
	sys := stableSystem(t,
		"p(X, Y) :- a(X, X1), b(Y, Y1), p(X1, Y1).",
		"p(X, Y) :- e(X, Y).")
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 5)
	storage.GenCycle(db, "b", 4)
	storage.GenRandomRelation(db, "e", 2, 6, 8, 3)
	q, _ := parser.ParseQuery("?- p(X, Y).")
	stableAnswers(t, sys, q, db)
}

// TestStableCyclicDataTerminates: cyclic chains repeat frontiers forever;
// the state-repetition cutoff must stop the iteration.
func TestStableCyclicDataTerminates(t *testing.T) {
	sys := stableSystem(t,
		"p(X, Y) :- a(X, X1), p(X1, Y).",
		"p(X, Y) :- e(X, Y).")
	db := storage.NewDatabase()
	storage.GenCycle(db, "a", 6)
	db.Insert("e", "n3", "v")
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	ans, st := stableAnswers(t, sys, q, db)
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
	if st.Rounds > 10 {
		t.Errorf("rounds = %d: cycle detection failed to stop at the period", st.Rounds)
	}
}
