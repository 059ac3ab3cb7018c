package eval

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

func stateAnswers(t *testing.T, srcRec, srcExit, query string, db *storage.Database) (*storage.Relation, Stats) {
	t.Helper()
	sys := stableSystem(t, srcRec, srcExit)
	q, err := parser.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	ans, st, err := StateEvalOpts(sys, q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(ref) {
		t.Fatalf("state eval differs from naive: %d vs %d", ans.Len(), ref.Len())
	}
	return ans, st
}

// TestStateLinkedSlotResolvedDeep: in (s9)-shaped rules a free answer
// position is resolved only when a deeper expansion's literal binds the
// linked variable.
func TestStateLinkedSlotResolvedDeep(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("a", "start", "mid")
	db.Insert("b", "u1", "v1")
	db.Insert("b", "u2", "v2")
	db.Insert("e", "u1", "deep", "v1")
	ans, _ := stateAnswers(t,
		"p(X, Y, Z) :- a(X, Y), b(U, V), p(U, Z, V).",
		"p(X, Y, Z) :- e(X, Y, Z).",
		"?- p(start, Y, Z).", db)
	// Depth 1: y = mid (from a), z = deep (from e via the linked slot).
	if ans.Len() != 1 {
		t.Fatalf("answers = %d, want 1", ans.Len())
	}
}

// TestStateFreeSlotsExistential: values that flow into positions nobody
// reads must not multiply answers.
func TestStateFreeSlotsExistential(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("b", "x")
	db.Insert("c", "n0", "t1")
	db.Insert("c", "n0", "t2")
	// Many tuples differing only in the existential first column.
	db.Insert("e", "w1", "t1")
	db.Insert("e", "w2", "t1")
	db.Insert("e", "w3", "t1")
	ans, _ := stateAnswers(t,
		"p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).",
		"p(X, Y) :- e(X, Y).",
		"?- p(n0, Y).", db)
	// Only y = x qualifies (b(Y)); existence of e(_, t1) gates it.
	if ans.Len() != 1 {
		t.Fatalf("answers = %d, want 1", ans.Len())
	}
}

// TestStateTerminatesOnCyclicData: cyclic chains revisit the same frontier
// states; dedup must terminate the walk.
func TestStateTerminatesOnCyclicData(t *testing.T) {
	db := storage.NewDatabase()
	storage.GenCycle(db, "a", 5)
	db.Insert("e", "n2", "hit")
	ans, st := stateAnswers(t,
		"p(X, Y) :- a(X, X1), p(X1, Y).",
		"p(X, Y) :- e(X, Y).",
		"?- p(n0, Y).", db)
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
	if st.Rounds > 7 {
		t.Errorf("rounds = %d, dedup failed to cap the cyclic walk", st.Rounds)
	}
}

// TestStateSelfLoopKeepsLink: an A2 position's link must survive arbitrarily
// many expansions and finally resolve from the exit relation.
func TestStateSelfLoopKeepsLink(t *testing.T) {
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 6)
	db.Insert("e", "n5", "payload")
	ans, _ := stateAnswers(t,
		"p(X, Y) :- a(X, X1), p(X1, Y).",
		"p(X, Y) :- e(X, Y).",
		"?- p(n0, Y).", db)
	if ans.Len() != 1 {
		t.Fatalf("answers = %d, want 1", ans.Len())
	}
	v, _ := db.Syms.Lookup("payload")
	n0, _ := db.Syms.Lookup("n0")
	if !ans.Contains(storage.Tuple{n0, v}) {
		t.Error("payload did not flow through the self-loop link")
	}
}

// TestStateBoundSelfLoopValueFlows: a bound position whose variable skips
// the non-recursive literals must flow its constant down unchanged.
func TestStateBoundSelfLoopValueFlows(t *testing.T) {
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 4)
	db.Insert("e", "n3", "k")
	ans, _ := stateAnswers(t,
		"p(X, Y) :- a(X, X1), p(X1, Y).",
		"p(X, Y) :- e(X, Y).",
		"?- p(n0, k).", db)
	if ans.Len() != 1 {
		t.Fatalf("answers = %d, want 1 (selection on the self-loop position)", ans.Len())
	}
}

// TestStateAnswerConflictRejected: when the exit value disagrees with an
// already-resolved answer slot the tuple must be dropped, not corrupted.
func TestStateAnswerConflictRejected(t *testing.T) {
	db := storage.NewDatabase()
	// Rule where Y appears both in a body literal (resolving the answer)
	// and under the recursive predicate (linking it down to E).
	db.Insert("a", "n0", "mid")
	db.Insert("g", "mid", "wanted")
	db.Insert("e", "mid", "other") // disagrees with g's resolution at depth 1
	db.Insert("e", "mid", "wanted")
	ans, _ := stateAnswers(t,
		"p(X, Y) :- a(X, X1), g(X1, Y), p(X1, Y).",
		"p(X, Y) :- e(X, Y).",
		"?- p(n0, Y).", db)
	n0, _ := db.Syms.Lookup("n0")
	w, _ := db.Syms.Lookup("wanted")
	if !ans.Contains(storage.Tuple{n0, w}) {
		t.Error("consistent answer missing")
	}
	o, _ := db.Syms.Lookup("other")
	if ans.Contains(storage.Tuple{n0, o}) {
		t.Error("conflicting exit value leaked into the answers")
	}
}

// TestStateEmptyExit: with an empty exit relation there are no answers at
// any depth, and the evaluator still terminates.
func TestStateEmptyExit(t *testing.T) {
	db := storage.NewDatabase()
	storage.GenChain(db, "a", 50)
	db.Ensure("e", 2)
	ans, _ := stateAnswers(t,
		"p(X, Y) :- a(X, X1), p(X1, Y).",
		"p(X, Y) :- e(X, Y).",
		"?- p(n0, Y).", db)
	if ans.Len() != 0 {
		t.Errorf("answers = %d, want 0", ans.Len())
	}
}
