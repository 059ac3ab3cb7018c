package eval

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// The maintenance differential suite: after every randomized insert batch,
// an entry carried forward by ResultCache.Maintain must be tuple-for-tuple
// the answer a from-scratch evaluation computes at the new epoch — for
// every plan class, over several chained rounds (a maintained entry must
// itself stay maintainable).

// maintWorkload drives one plan class through the differential loop.
type maintWorkload struct {
	name    string
	sys     *ast.RecursiveSystem
	kind    PlanKind
	queries []string
	// batch inserts one randomized write round.
	batch func(r *rand.Rand, db *storage.Database) error
}

func insertAll(db *storage.Database, facts [][]string) error {
	for _, f := range facts {
		if _, err := db.Insert(f[0], f[1:]...); err != nil {
			return err
		}
	}
	return nil
}

func maintWorkloads(t *testing.T) []maintWorkload {
	t.Helper()
	node := func(r *rand.Rand) string { return fmt.Sprintf("n%d", r.Intn(24)) }
	edgeBatch := func(r *rand.Rand, db *storage.Database) error {
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			pred := "a"
			if r.Intn(3) == 0 {
				pred = "e" // grow the exit relation too
			}
			if _, err := db.Insert(pred, node(r), node(r)); err != nil {
				return err
			}
		}
		return nil
	}
	return []maintWorkload{
		{
			name: "tc-right-linear",
			sys:  mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y)."),
			kind: PlanTC,
			queries: []string{
				"?- p(n0, Y).", "?- p(X, n3).", "?- p(X, Y).", "?- p(n0, n3).",
			},
			batch: edgeBatch,
		},
		{
			name: "tc-left-linear",
			sys:  mustSystem(t, "p(X, Y) :- p(X, Z), a(Z, Y).", "p(X, Y) :- e(X, Y)."),
			kind: PlanTC,
			queries: []string{
				"?- p(n0, Y).", "?- p(X, n3).", "?- p(X, Y).", "?- p(n0, n3).",
			},
			batch: edgeBatch,
		},
		{
			name:    "bounded-union",
			sys:     mustSystem(t, "p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).", "p(X, Y) :- e(X, Y)."),
			kind:    PlanBounded,
			queries: []string{"?- p(X, Y).", "?- p(n0, Y)."},
			batch: func(r *rand.Rand, db *storage.Database) error {
				u := func() string { return fmt.Sprintf("u%d", r.Intn(7)) }
				return insertAll(db, [][]string{
					{"b", u()},
					{"c", node(r), u()},
					{"e", node(r), u()},
				})
			},
		},
		{
			name: "stable-parallel",
			sys: mustSystem(t, "p(X1, X2, X3) :- sa(X1, Y3), sb(X2, Y1), sc(Y2, X3), p(Y1, Y2, Y3).",
				"p(X, Y, Z) :- e3(X, Y, Z)."),
			kind:    PlanStable,
			queries: []string{"?- p(X, Y, Z).", "?- p(s0, Y, Z)."},
			batch: func(r *rand.Rand, db *storage.Database) error {
				s := func() string { return fmt.Sprintf("s%d", r.Intn(6)) }
				return insertAll(db, [][]string{
					{"sa", s(), s()}, {"sb", s(), s()}, {"sc", s(), s()},
					{"e3", s(), s(), s()},
				})
			},
		},
		{
			// s9 shape, class C: no licensed fast path, generic parallel engine.
			name:    "generic-parallel",
			sys:     mustSystem(t, "p(X, Y, Z) :- a(X, Y), b(U, V), p(U, Z, V).", "p(X, Y, Z) :- e3(X, Y, Z)."),
			kind:    PlanGeneric,
			queries: []string{"?- p(X, Y, Z).", "?- p(n0, Y, Z)."},
			batch: func(r *rand.Rand, db *storage.Database) error {
				g := func() string { return fmt.Sprintf("n%d", r.Intn(5)) }
				return insertAll(db, [][]string{
					{"a", g(), g()},
					{"b", g(), g()},
					{"e3", g(), g(), g()},
				})
			},
		},
	}
}

// seedWorkload gives every workload its initial EDB (all query constants
// interned up front, so bound queries are never trivially empty).
func seedWorkload(t *testing.T, w maintWorkload, r *rand.Rand, db *storage.Database) {
	t.Helper()
	for i := 0; i < 6; i++ {
		if err := w.batch(r, db); err != nil {
			t.Fatal(err)
		}
	}
	if err := insertAll(db, [][]string{{"e", "n0", "n3"}, {"a", "n3", "n0"}}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainDifferential: for each plan class, cache every query at epoch
// k, apply a random insert batch, Maintain, and require (a) every entry was
// carried forward (maintained, not recomputed, for these negation-free
// systems), (b) the carried entry is served as a cache hit flagged
// Maintained, and (c) it equals a from-scratch naive evaluation of the
// new database. Four chained rounds per workload prove maintained entries
// stay maintainable.
func TestMaintainDifferential(t *testing.T) {
	for _, w := range maintWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			p, err := CompilePlanOpts(w.sys, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if p.Kind != w.kind {
				t.Fatalf("compiles to %v, want %v", p.Kind, w.kind)
			}
			r := rand.New(rand.NewSource(7))
			db := storage.NewDatabase()
			seedWorkload(t, w, r, db)
			pl := NewPlanner()
			rc := NewResultCache(0)
			queries := make([]ast.Query, len(w.queries))
			for i, qs := range w.queries {
				q, err := parser.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
			}

			snap := db.Snapshot()
			for _, q := range queries {
				if _, _, _, err := rc.Answer(pl, w.sys, q, snap, Opts{}); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 4; round++ {
				old := snap
				if err := w.batch(r, db); err != nil {
					t.Fatal(err)
				}
				snap = db.Snapshot()
				res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: w.sys, Opts: Opts{}})
				if res.Maintained != len(queries) || res.Recomputed != 0 || res.Skipped != 0 {
					t.Fatalf("round %d: Maintain = %+v, want %d maintained", round, res, len(queries))
				}
				for i, q := range queries {
					got, st, cached, err := rc.Answer(pl, w.sys, q, snap, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if !cached || !st.Maintained {
						t.Fatalf("round %d %s: cached=%v maintained=%v, want true/true",
							round, w.queries[i], cached, st.Maintained)
					}
					want, _, err := Answer(StrategyNaive, w.sys, q, db)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Errorf("round %d %s: maintained %d tuples, from-scratch %d",
							round, w.queries[i], got.Len(), want.Len())
					}
				}
			}
		})
	}
}

// TestMaintainProgramEntries covers a general program (no single linear
// system, so a classless plan): the shared fixpoint is maintained once and
// every cached query of the program is re-answered from it.
func TestMaintainProgramEntries(t *testing.T) {
	prog, _, err := parser.ParseProgram(
		"t(X, Y) :- e(X, Y).\n" +
			"t(X, Y) :- t(X, Z), t(Z, Y).\n" +
			"pair(X) :- t(X, X).\n")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	db := storage.NewDatabase()
	for i := 0; i < 8; i++ {
		if _, err := db.Insert("e", fmt.Sprintf("n%d", r.Intn(10)), fmt.Sprintf("n%d", r.Intn(10))); err != nil {
			t.Fatal(err)
		}
	}
	pl, rc := NewPlanner(), NewResultCache(0)
	var queries []ast.Query
	for _, qs := range []string{"?- t(X, Y).", "?- t(n0, Y).", "?- pair(X)."} {
		q, err := parser.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	snap := db.Snapshot()
	for _, q := range queries {
		if _, _, _, err := rc.Answer(pl, prog, q, snap, Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		old := snap
		for i := 0; i < 3; i++ {
			if _, err := db.Insert("e", fmt.Sprintf("n%d", r.Intn(10)), fmt.Sprintf("n%d", r.Intn(10))); err != nil {
				t.Fatal(err)
			}
		}
		snap = db.Snapshot()
		res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: prog, Opts: Opts{}})
		if res.Maintained != len(queries) || res.Recomputed != 0 {
			t.Fatalf("round %d: Maintain = %+v, want %d maintained", round, res, len(queries))
		}
		out, _, err := NaiveOpts(prog, snap.DB(), Opts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			got, st, cached, err := rc.Answer(pl, prog, q, snap, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if !cached || !st.Maintained {
				t.Fatalf("round %d query %d: cached=%v maintained=%v", round, i, cached, st.Maintained)
			}
			want, err := AnswerQuery(out, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("round %d query %d: maintained %d tuples, fresh %d", round, i, got.Len(), want.Len())
			}
		}
	}
}

// TestMaintainNegationFallback: negation breaks insert-only monotonicity
// (new tuples can retract old answers), so maintenance must fall back to a
// full recompute — and the recomputed entry must reflect the retraction.
func TestMaintainNegationFallback(t *testing.T) {
	prog, _, err := parser.ParseProgram(
		"t(X) :- e(X), not blk(X).\n" +
			"t(Y) :- t(X), link(X, Y), not blk(Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := insertAll(db, [][]string{
		{"e", "n0"}, {"link", "n0", "n1"}, {"link", "n1", "n2"},
	}); err != nil {
		t.Fatal(err)
	}
	pl, rc := NewPlanner(), NewResultCache(0)
	q, _ := parser.ParseQuery("?- t(X).")
	snap := db.Snapshot()
	before, _, _, err := rc.Answer(pl, prog, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != 3 {
		t.Fatalf("seed answer has %d tuples, want 3", before.Len())
	}
	old := snap
	if _, err := db.Insert("blk", "n1"); err != nil {
		t.Fatal(err)
	}
	snap = db.Snapshot()
	res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: prog, Opts: Opts{}})
	if res.Recomputed != 1 || res.Maintained != 0 {
		t.Fatalf("Maintain = %+v, want 1 recomputed", res)
	}
	after, st, cached, err := rc.Answer(pl, prog, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || st.Maintained {
		t.Fatalf("cached=%v maintained=%v, want cached, not maintained", cached, st.Maintained)
	}
	// blk(n1) retracts t(n1) and with it t(n2): only t(n0) survives.
	if after.Len() != 1 {
		t.Errorf("recomputed answer has %d tuples, want 1 (negation retracted two)", after.Len())
	}
}

// TestMaintainBudgetFallback: an absurdly small budget forces the delta
// pass to give up; the entry must be recomputed, and still be correct.
func TestMaintainBudgetFallback(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 8)
	pl := NewPlanner()
	rc := NewResultCache(0)
	q, _ := parser.ParseQuery("?- p(X, Y).")
	snap := db.Snapshot()
	if _, _, _, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil {
		t.Fatal(err)
	}
	old := snap
	for _, pred := range []string{"a", "e"} {
		if _, err := db.Insert(pred, "n7", "n8"); err != nil {
			t.Fatal(err)
		}
	}
	snap = db.Snapshot()
	res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, budget: 1, Opts: Opts{}})
	if res.Recomputed != 1 || res.Maintained != 0 {
		t.Fatalf("Maintain = %+v, want 1 recomputed under budget=1", res)
	}
	got, st, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || st.Maintained {
		t.Fatalf("cached=%v maintained=%v, want cached recompute", cached, st.Maintained)
	}
	want, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("recomputed fallback: %d tuples, want %d", got.Len(), want.Len())
	}
}

// TestMaintainEmptyDiff: a write that inserts only duplicates still
// advances the epoch; the entry must be re-keyed to the new epoch reusing
// the very same relation (no recompute, no copy).
func TestMaintainEmptyDiff(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 6)
	pl := NewPlanner()
	rc := NewResultCache(0)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	snap := db.Snapshot()
	before, _, _, err := rc.Answer(pl, sys, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	old := snap
	if _, err := db.Insert("a", "n0", "n1"); err != nil { // duplicate of chainDB's edge
		t.Fatal(err)
	}
	snap = db.Snapshot()
	if snap.Epoch() == old.Epoch() {
		t.Fatal("duplicate insert did not advance the epoch")
	}
	res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Opts: Opts{}})
	if res.Maintained != 1 {
		t.Fatalf("Maintain = %+v, want 1 maintained", res)
	}
	after, st, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || !st.Maintained || after != before {
		t.Errorf("empty-diff carry: cached=%v maintained=%v same-object=%v, want all true",
			cached, st.Maintained, after == before)
	}
}

// TestMaintainSkipsForeignEntries: entries of a program the spec does not
// describe are left behind (Skipped), never guessed at.
func TestMaintainSkipsForeignEntries(t *testing.T) {
	sysA := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	sysB := mustSystem(t, "r(X, Y) :- a(X, Z), r(Z, Y).", "r(X, Y) :- e(X, Y).")
	db := chainDB(t, 6)
	pl := NewPlanner()
	rc := NewResultCache(0)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	snap := db.Snapshot()
	if _, _, _, err := rc.Answer(pl, sysA, q, snap, Opts{}); err != nil {
		t.Fatal(err)
	}
	old := snap
	if _, err := db.Insert("a", "n5", "n0"); err != nil {
		t.Fatal(err)
	}
	snap = db.Snapshot()
	res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sysB, Opts: Opts{}})
	if res.Skipped != 1 || res.Maintained != 0 || res.Recomputed != 0 {
		t.Fatalf("Maintain = %+v, want 1 skipped", res)
	}
}

// TestMaintainMetrics: the maintained/carried/recomputed counters and the
// duration histogram in the cache's registry move with the pass.
func TestMaintainMetrics(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 6)
	pl := NewPlanner()
	reg := obs.NewRegistry()
	rc := NewResultCacheWith(reg, 0)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	snap := db.Snapshot()
	if _, _, _, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil {
		t.Fatal(err)
	}
	old := snap
	for _, pred := range []string{"a", "e"} {
		if _, err := db.Insert(pred, "n5", "n6"); err != nil {
			t.Fatal(err)
		}
	}
	snap = db.Snapshot()
	rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Opts: Opts{}})
	if got := reg.Counter("dl_resultcache_maintained_total").Value(); got != 1 {
		t.Errorf("maintained counter = %d, want 1", got)
	}
	if got := reg.Counter("dl_resultcache_recomputed_total").Value(); got != 0 {
		t.Errorf("recomputed counter = %d, want 0", got)
	}
	if n := reg.Histogram("dl_resultcache_maintenance_seconds", nil).Count(); n != 1 {
		t.Errorf("maintenance histogram count = %d, want 1", n)
	}
	// That write grew the entry; one the entry cannot see re-keys it as it is,
	// which counts as maintained and as carried.
	if got := reg.Counter("dl_resultcache_carried_total").Value(); got != 0 {
		t.Errorf("carried counter = %d after a write that grew the entry, want 0", got)
	}
	old = snap
	if _, err := db.Insert("a", "far0", "far1"); err != nil {
		t.Fatal(err)
	}
	snap = db.Snapshot()
	if res, want := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Opts: Opts{}}), (MaintResult{Maintained: 1, Carried: 1}); res != want {
		t.Errorf("Maintain = %+v, want %+v", res, want)
	}
	if m, c := reg.Counter("dl_resultcache_maintained_total").Value(), reg.Counter("dl_resultcache_carried_total").Value(); m != 2 || c != 1 {
		t.Errorf("maintained/carried counters = %d/%d, want 2/1", m, c)
	}
}

// TestMaintainConcurrentReaders races Maintain against readers answering
// through the cache on both the old and the new snapshot (run under -race
// by `make race`). Readers pinned to the old epoch must keep getting the
// old answer; readers on the new epoch must get the maintained answer equal
// to a from-scratch evaluation.
func TestMaintainConcurrentReaders(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 32)
	pl := NewPlanner()
	rc := NewResultCache(0)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	oldSnap := db.Snapshot()
	oldRel, _, _, err := rc.Answer(pl, sys, q, oldSnap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"a", "e"} {
		if _, err := db.Insert(pred, "n31", "n32"); err != nil {
			t.Fatal(err)
		}
	}
	newSnap := db.Snapshot()
	want, _, err := Answer(StrategyNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if r%2 == 0 {
					got, _, _, err := rc.Answer(pl, sys, q, oldSnap, Opts{})
					if err != nil {
						t.Error(err)
						return
					}
					if !got.Equal(oldRel) {
						t.Errorf("old-epoch reader saw %d tuples, want %d", got.Len(), oldRel.Len())
						return
					}
				} else {
					got, _, _, err := rc.Answer(pl, sys, q, newSnap, Opts{})
					if err != nil {
						t.Error(err)
						return
					}
					if !got.Equal(want) {
						t.Errorf("new-epoch reader saw %d tuples, want %d", got.Len(), want.Len())
						return
					}
				}
			}
		}(r)
	}
	close(start)
	rc.Maintain(oldSnap, newSnap, MaintSpec{Planner: pl, Sys: sys, Opts: Opts{}})
	wg.Wait()
}
