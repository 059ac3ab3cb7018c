package eval

import (
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
	db := chainDB(t, 6)
	q, _ := parser.ParseQuery("?- p(n0, Y).")

	_, st, err := pl.Answer(sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil || st.Plan.CacheHit {
		t.Fatalf("first query: plan info %+v, want cache miss", st.Plan)
	}
	_, st, err = pl.Answer(sys, q, db)
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
	if _, st, err = pl.Answer(sys, q2, db); err != nil || st.Plan.CacheHit {
		t.Fatalf("new adornment: hit=%v err=%v, want miss", st.Plan.CacheHit, err)
	}
	// Same adornment, different constant: the plan is per query *form*.
	q3, _ := parser.ParseQuery("?- p(n3, Y).")
	if _, st, err = pl.Answer(sys, q3, db); err != nil || !st.Plan.CacheHit {
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
	if _, _, err := pl.Answer(sysA, q, db); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.Answer(sysA, qf, db); err != nil {
		t.Fatal(err)
	}

	// A changed rule set never sees the old plan: the key covers the full
	// canonical rule text.
	sysB := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).",
		"p(X, Y) :- e(X, Y).", "p(X, Y) :- g(Y, X).")
	ansA, stB, err := pl.Answer(sysB, q, db)
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

	pl.Reset()
	if h, m := pl.Metrics(); pl.Len() != 0 || h != 0 || m != 0 {
		t.Errorf("Reset left size=%d hits=%d misses=%d", pl.Len(), h, m)
	}
}

// TestPlannerEpochKeying covers the serving path: the same program and query
// form at different snapshot epochs key separate entries, and entries whose
// epoch falls behind the newest seen epoch by more than the pruning window
// are dropped automatically. Epoch-0 (epochless) entries are never pruned.
func TestPlannerEpochKeying(t *testing.T) {
	pl := NewPlanner()
	db := chainDB(t, 6)
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, _ := parser.ParseQuery("?- p(n0, Y).")

	// Epochless entry (PlanForOpts path).
	if _, hit, err := pl.PlanForOpts(sys, q, Opts{}); err != nil || hit {
		t.Fatalf("epochless first lookup: hit=%v err=%v, want miss", hit, err)
	}
	// Epoch 1 keys separately from epochless.
	if _, hit, err := pl.PlanForEpoch(sys, q, 1, nil, Opts{}); err != nil || hit {
		t.Fatalf("epoch 1 first lookup: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := pl.PlanForEpoch(sys, q, 1, nil, Opts{}); err != nil || !hit {
		t.Fatalf("epoch 1 repeat: hit=%v err=%v, want hit", hit, err)
	}
	if pl.Len() != 2 {
		t.Fatalf("cache size = %d, want 2 (epochless + epoch 1)", pl.Len())
	}

	// Advancing far past the window prunes epoch 1 but keeps epoch 0.
	far := uint64(1 + planEpochWindow)
	if _, hit, err := pl.PlanForEpoch(sys, q, far, nil, Opts{}); err != nil || hit {
		t.Fatalf("epoch %d lookup: hit=%v err=%v, want miss", far, hit, err)
	}
	if pl.Len() != 2 {
		t.Errorf("cache size after prune = %d, want 2 (epochless + epoch %d)", pl.Len(), far)
	}
	if _, hit, err := pl.PlanForEpoch(sys, q, 1, nil, Opts{}); err != nil || hit {
		t.Errorf("pruned epoch 1 must recompile: hit=%v err=%v", hit, err)
	}
	if got := pl.Invalidations(); got != 1 {
		t.Errorf("Invalidations() = %d, want 1 (one pruned entry)", got)
	}
	if _, hit, err := pl.PlanForOpts(sys, q, Opts{}); err != nil || !hit {
		t.Errorf("epochless entry must survive pruning: hit=%v err=%v", hit, err)
	}

	// answerSnapAux keys by the snapshot's epoch and answers correctly.
	snap := db.Snapshot()
	got, _, st, err := pl.answerSnapAux(sys, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Answer(StrategySemiNaive, sys, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Errorf("answerSnapAux answered %d tuples, want %d", got.Len(), ref.Len())
	}
	if st.Plan == nil {
		t.Error("answerSnapAux stats missing plan info")
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
				got, _, err := pl.Answer(sys, q, db)
				if err != nil {
					errs <- err
					return
				}
				ref, _, err := Answer(StrategySemiNaive, sys, q, db)
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
// the obs registry as monotonic counters, including across Reset (which only
// re-bases the per-planner Metrics view).
func TestPlannerRegistryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	pl := NewPlannerWith(reg)
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 6)
	q, _ := parser.ParseQuery("?- p(n0, Y).")

	for i := 0; i < 3; i++ {
		if _, _, err := pl.Answer(sys, q, db); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("dl_plancache_misses_total").Value(); got != 1 {
		t.Errorf("registry misses = %d, want 1", got)
	}
	if got := reg.Counter("dl_plancache_hits_total").Value(); got != 2 {
		t.Errorf("registry hits = %d, want 2", got)
	}
	// Epoch pruning feeds the invalidations counter: fill an epoch, then
	// advance past the window.
	if _, _, err := pl.PlanForEpoch(sys, q, 1, nil, Opts{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.PlanForEpoch(sys, q, 2+planEpochWindow, nil, Opts{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dl_plancache_invalidations_total").Value(); got != 1 {
		t.Errorf("registry invalidations = %d, want 1 (epoch prune)", got)
	}
	if got := pl.Invalidations(); got != 1 {
		t.Errorf("Invalidations() = %d, want 1", got)
	}

	// Reset zeroes the planner's view but never decrements the registry.
	pl.Reset()
	if h, m := pl.Metrics(); h != 0 || m != 0 {
		t.Fatalf("post-Reset Metrics = %d/%d, want 0/0", h, m)
	}
	if got := reg.Counter("dl_plancache_hits_total").Value(); got != 2 {
		t.Errorf("Reset changed registry hits to %d, want 2 (monotonic)", got)
	}
	if _, _, err := pl.Answer(sys, q, db); err != nil {
		t.Fatal(err)
	}
	if h, m := pl.Metrics(); h != 0 || m != 1 {
		t.Errorf("post-Reset lookup Metrics = %d/%d, want 0/1", h, m)
	}
	if got := reg.Counter("dl_plancache_misses_total").Value(); got != 4 {
		t.Errorf("registry misses = %d, want 4 (cumulative: 1 + 2 epoch + 1 post-Reset)", got)
	}
}
