package eval

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/storage"
)

// The round driver centralizes what used to be separate loops, so the one
// thing it must pin is that the ways of consuming it agree: for one fixture
// per plan class, on one worker (every task inline) and on a pool of four
// (each frontier cut into workers*3 chunks), the materialized answer, the
// stream drained to exhaustion and the entry maintained across an insert
// batch all equal the naive oracle — and the materialized and streamed runs,
// on either worker count, do the same work (identical rounds and
// derivations).

// oracleRows answers q by naive evaluation.
func oracleRows(t *testing.T, sys *ast.RecursiveSystem, q ast.Query, db *storage.Database) []string {
	t.Helper()
	out, _, err := NaiveOpts(sys.Program(), db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := AnswerQuery(out, q)
	if err != nil {
		t.Fatal(err)
	}
	return relRows(ans)
}

// firstConstant names a constant present in the database, so that a query
// bound to it has work to do.
func firstConstant(db *storage.Database) string {
	for _, pred := range db.Preds() {
		if r := db.Rel(pred); r.Len() > 0 && r.Arity() > 0 {
			return db.Syms.Name(r.At(0)[0])
		}
	}
	return "n0"
}

func TestDriverModesAgree(t *testing.T) {
	fixtures := []struct {
		id             string
		kind           PlanKind
		domain, tuples int // per EDB relation
	}{
		{"s1a", PlanTC, 6, 14},
		{"s10", PlanBounded, 6, 14},
		{"s4a", PlanStable, 6, 14},
		{"s11", PlanGeneric, 6, 14},
		// 4 500 EDB tuples: frontiers long enough to fill every chunk of the
		// pool, sparse enough that the fixpoint stays small.
		{"s12", PlanGeneric, 300, 900},
	}
	for _, f := range fixtures {
		// Rounds and derivations per query, as the first worker count ran
		// them; the second must repeat them.
		work := make(map[string][2]int)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", f.id, workers), func(t *testing.T) {
				sys := mustStatement(t, f.id).System()
				db, err := dlgen.RandomDB(sys, f.domain, f.tuples, 3)
				if err != nil {
					t.Fatal(err)
				}
				opts := Opts{Workers: workers}
				pl, rc := NewPlanner(), NewResultCache(0)
				queries := []ast.Query{queryFor(sys, 0, ""), queryFor(sys, 1, firstConstant(db))}

				snap := db.Snapshot()
				for _, q := range queries {
					want := oracleRows(t, sys, q, snap.DB())
					mat, mst, _, err := rc.Answer(pl, sys, q, snap, opts)
					if err != nil {
						t.Fatal(err)
					}
					if mst.Plan == nil || mst.Plan.Strategy != f.kind.String() {
						t.Fatalf("%v: plan %+v, want %v", q, mst.Plan, f.kind)
					}
					if !rowsEqual(relRows(mat), want) {
						t.Errorf("%v: materialized %d rows, oracle %d", q, mat.Len(), len(want))
					}
					did := [2]int{mst.Rounds, mst.Derived}
					if first, ok := work[q.String()]; ok && first != did {
						t.Errorf("%v: rounds/derived %v on %d workers, %v on the first worker count", q, did, workers, first)
					}
					work[q.String()] = did
					p, _, err := pl.PlanForEpoch(sys, q, snap.Epoch(), snap.DB(), opts)
					if err != nil {
						t.Fatal(err)
					}
					it := p.Stream(q, snap.DB(), opts, 0)
					if got := drainStream(t, it); !rowsEqual(got, want) {
						t.Errorf("%v: streamed %d rows, oracle %d", q, len(got), len(want))
					}
					if sst := it.Stats(); sst.Rounds != mst.Rounds || sst.Derived != mst.Derived {
						t.Errorf("%v: streamed rounds=%d derived=%d, materialized rounds=%d derived=%d",
							q, sst.Rounds, sst.Derived, mst.Rounds, mst.Derived)
					}
				}

				old := snap
				for _, pred := range sys.Program().EDBPreds() {
					if err := storage.GenRandomRelation(db, pred, db.Rel(pred).Arity(), 6, 3, 99); err != nil {
						t.Fatal(err)
					}
				}
				snap = db.Snapshot()
				res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Opts: opts})
				if res.Maintained != len(queries) {
					t.Fatalf("Maintain = %+v, want %d maintained", res, len(queries))
				}
				for _, q := range queries {
					got, st, cached, err := rc.Answer(pl, sys, q, snap, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !cached || !st.Maintained {
						t.Fatalf("%v: cached=%v maintained=%v, want true/true", q, cached, st.Maintained)
					}
					if want := oracleRows(t, sys, q, snap.DB()); !rowsEqual(relRows(got), want) {
						t.Errorf("%v: maintained %d rows, oracle %d", q, got.Len(), len(want))
					}
				}
			})
		}
	}
}

// TestDriverBudgetFallsBack: a delta pass whose sink runs out of budget is
// abandoned for a from-scratch recompute, on the round driver (a fixpoint
// entry) and on the TC compose kernel (an all-free entry) alike.
func TestDriverBudgetFallsBack(t *testing.T) {
	for _, id := range []string{"s11", "s1a"} {
		t.Run(id, func(t *testing.T) {
			sys := mustStatement(t, id).System()
			db, err := dlgen.RandomDB(sys, 6, 14, 3)
			if err != nil {
				t.Fatal(err)
			}
			pl, rc := NewPlanner(), NewResultCache(0)
			q := queryFor(sys, 0, "")
			snap := db.Snapshot()
			if _, _, _, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil {
				t.Fatal(err)
			}
			old := snap
			// Three new exit tuples: the seed alone attempts three derivations.
			if err := insertAll(db, [][]string{{"e", "z1", "z2"}, {"e", "z2", "z3"}, {"e", "z3", "z1"}}); err != nil {
				t.Fatal(err)
			}
			snap = db.Snapshot()
			res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Budget: 1})
			if res.Recomputed != 1 || res.Maintained != 0 {
				t.Fatalf("Maintain = %+v, want 1 recomputed under Budget=1", res)
			}
			got, st, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if !cached || st.Maintained {
				t.Fatalf("cached=%v maintained=%v, want a cached recompute", cached, st.Maintained)
			}
			if want := oracleRows(t, sys, q, snap.DB()); !rowsEqual(relRows(got), want) {
				t.Errorf("recomputed fallback: %d rows, oracle %d", got.Len(), len(want))
			}
		})
	}
}
