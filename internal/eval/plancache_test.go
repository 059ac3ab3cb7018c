package eval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

func TestPlannerHitMissAccounting(t *testing.T) {
	pl := NewPlanner()
	sys := mustStatement(t, "s1a").System()
	// A snapshot: the all-free query's fixpoint builds indexes, which on a
	// live database would move the statistics epoch the plans are keyed by.
	db := chainDB(t, 6).Snapshot().DB()
	q, _ := parser.ParseQuery("?- p(n0, Y).")

	_, st, err := pl.AnswerOpts(sys, q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil || st.Plan.CacheHit {
		t.Fatalf("first query: plan info %+v, want cache miss", st.Plan)
	}
	_, st, err = pl.AnswerOpts(sys, q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil || !st.Plan.CacheHit {
		t.Fatalf("repeated query: plan info %+v, want cache hit", st.Plan)
	}
	if hits, misses := pl.Metrics(); hits != 1 || misses != 1 {
		t.Errorf("metrics = %d hits / %d misses, want 1/1", hits, misses)
	}
	if pl.Len() != 1 {
		t.Errorf("cache size = %d, want 1", pl.Len())
	}

	// A different adornment of the same program keys separately.
	q2, _ := parser.ParseQuery("?- p(X, Y).")
	if _, st, err = pl.AnswerOpts(sys, q2, db, Opts{}); err != nil || st.Plan.CacheHit {
		t.Fatalf("new adornment: hit=%v err=%v, want miss", st.Plan.CacheHit, err)
	}
	// Same adornment, different constant: the plan is per query *form*.
	q3, _ := parser.ParseQuery("?- p(n3, Y).")
	if _, st, err = pl.AnswerOpts(sys, q3, db, Opts{}); err != nil || !st.Plan.CacheHit {
		t.Fatalf("same adornment, new constant: hit=%v err=%v, want hit", st.Plan.CacheHit, err)
	}
	if hits, misses := pl.Metrics(); hits != 2 || misses != 2 {
		t.Errorf("metrics = %d/%d, want 2/2", hits, misses)
	}
	if pl.Len() != 2 {
		t.Errorf("cache size = %d, want 2", pl.Len())
	}
}

func TestPlannerInvalidation(t *testing.T) {
	pl := NewPlanner()
	db := chainDB(t, 6)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	qf, _ := parser.ParseQuery("?- p(X, Y).")

	sysA := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	if _, _, err := pl.AnswerOpts(sysA, q, db, Opts{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.AnswerOpts(sysA, qf, db, Opts{}); err != nil {
		t.Fatal(err)
	}

	// A changed rule set never sees the old plan: the key covers the full
	// canonical rule text.
	sysB := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).",
		"p(X, Y) :- e(X, Y).", "p(X, Y) :- g(Y, X).")
	ansA, stB, err := pl.AnswerOpts(sysB, q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if stB.Plan.CacheHit {
		t.Error("changed rule set served a cached plan")
	}
	// The extra exit must actually contribute (g is absent here, so compare
	// against a fresh evaluation to prove the right system ran).
	ref, _, err := Answer(StrategyNaive, sysB, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ansA.Equal(ref) {
		t.Errorf("plan for changed system answered %d tuples, want %d", ansA.Len(), ref.Len())
	}
}

// TestPlannerSurvivesWrites covers the serving path: a plan holds nothing
// that depends on the snapshot epoch, so a write that leaves the column
// statistics alone is a hit at the next epoch — for the next query and for
// the maintenance pass alike — and only growth past the storage layer's
// staleness bound (an index rebuild, which moves the statistics epoch)
// recompiles it: one miss, one invalidation, still one cached plan.
func TestPlannerSurvivesWrites(t *testing.T) {
	reg := obs.NewRegistry()
	pl := NewPlannerWith(reg)
	db := chainDB(t, 6)
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	lookup := func(wantHit bool, when string) *Plan {
		t.Helper()
		snap := db.Snapshot()
		p, hit, err := pl.PlanForEpoch(sys, q, snap.Epoch(), snap.DB(), Opts{})
		if err != nil || hit != wantHit {
			t.Fatalf("%s (epoch %d): hit=%v err=%v, want hit=%v", when, snap.Epoch(), hit, err, wantHit)
		}
		return p
	}
	first := lookup(false, "first lookup")
	stats := db.StatsEpoch()
	if _, err := db.Insert("a", "n5", "n6"); err != nil {
		t.Fatal(err)
	}
	if db.StatsEpoch() != stats {
		t.Fatal("a one-fact write moved the statistics epoch; the fixture proves nothing")
	}
	if p := lookup(true, "after a one-fact write"); p != first {
		t.Error("the hit returned a different plan")
	}
	// Grow a past colIndex.stale (overflow > built/2 + 64): the rebuild moves
	// the statistics, the plan's order book with them.
	for i := 0; db.StatsEpoch() == stats; i++ {
		if i > 200 {
			t.Fatal("200 inserts never triggered an index rebuild")
		}
		if _, err := db.Insert("a", fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	lookup(false, "after the statistics moved")
	lookup(true, "repeat at the new statistics")
	if pl.Len() != 1 {
		t.Errorf("cache size = %d, want 1 (one plan per program and adornment)", pl.Len())
	}
	for name, want := range map[string]int64{
		"dl_plancache_misses_total": 2, "dl_plancache_hits_total": 2, "dl_plancache_invalidations_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := pl.Invalidations(); got != 1 {
		t.Errorf("Invalidations() = %d, want 1", got)
	}
}

// TestPlannerConcurrent hammers one Planner from many goroutines (run under
// -race by `make verify`): every goroutine uses its own database, so the
// only shared state is the cache itself.
func TestPlannerConcurrent(t *testing.T) {
	pl := NewPlanner()
	// The systems and queries are shared across workers: concurrent PlanFor
	// calls race on the same keys, exercising the first-entry-wins path.
	systems := []*ast.RecursiveSystem{
		mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y)."),          // TC plan
		mustSystem(t, "p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).", "p(X, Y) :- e(X, Y)."), // bounded plan (s10 shape)
	}
	var queries []ast.Query
	for _, qs := range []string{"?- p(n0, Y).", "?- p(X, Y)."} {
		q, err := parser.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sys := systems[(w+i)%len(systems)]
				// Per-goroutine database: the cache is the only shared state.
				db := storage.NewDatabase()
				if err := storage.GenChain(db, "a", 6); err != nil {
					errs <- err
					return
				}
				storage.GenRandomRelation(db, "b", 1, 6, 4, int64(w))
				storage.GenRandomRelation(db, "c", 2, 6, 6, int64(i))
				db.Set("e", db.Rel("a").Clone())
				q := queries[i%len(queries)]
				got, _, err := pl.AnswerOpts(sys, q, db, Opts{})
				if err != nil {
					errs <- err
					return
				}
				ref, _, err := Answer(StrategyNaive, sys, q, db)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(ref) {
					t.Errorf("worker %d round %d: cached plan differs (%d vs %d)",
						w, i, got.Len(), ref.Len())
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := pl.Metrics()
	if hits+misses != workers*rounds {
		t.Errorf("accounting: %d hits + %d misses != %d lookups", hits, misses, workers*rounds)
	}
	if pl.Len() != len(systems)*len(queries) {
		t.Errorf("cache size = %d, want %d", pl.Len(), len(systems)*len(queries))
	}
	if misses < uint64(pl.Len()) || misses > uint64(workers*len(systems)*len(queries)) {
		t.Errorf("misses = %d outside [%d, %d]", misses, pl.Len(), workers*len(systems)*len(queries))
	}
}

// TestPlannerRegistryCounters checks the planner's cache accounting lands in
// the obs registry (TestPlannerSurvivesWrites covers the invalidations
// counter).
func TestPlannerRegistryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	pl := NewPlannerWith(reg)
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 6)
	q, _ := parser.ParseQuery("?- p(n0, Y).")

	for i := 0; i < 3; i++ {
		if _, _, err := pl.AnswerOpts(sys, q, db, Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("dl_plancache_misses_total").Value(); got != 1 {
		t.Errorf("registry misses = %d, want 1", got)
	}
	if got := reg.Counter("dl_plancache_hits_total").Value(); got != 2 {
		t.Errorf("registry hits = %d, want 2", got)
	}
	if h, m := pl.Metrics(); h != 2 || m != 1 {
		t.Errorf("Metrics() = %d/%d, want 2/1", h, m)
	}
}
