package eval

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestResultCacheDifferential proves a cached answer is byte-for-byte the
// answer every engine computes fresh: for each strategy, the fresh result
// over the same data must Equal both the cold (computed) and warm (cached)
// result served through the cache.
func TestResultCacheDifferential(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	for _, qs := range []string{"?- p(n0, Y).", "?- p(X, Y)."} {
		q, err := parser.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		db := chainDB(t, 8)
		snap := db.Snapshot()
		pl := NewPlanner()
		rc := NewResultCache(0)

		cold, _, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("%s: first answer reported cached", qs)
		}
		warm, _, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("%s: second answer not cached", qs)
		}
		if warm != cold {
			t.Errorf("%s: warm hit returned a different relation object", qs)
		}
		for _, strat := range Strategies() {
			fresh, _, err := Answer(strat, sys, q, db)
			if err != nil {
				t.Fatalf("%s/%s: %v", qs, strat, err)
			}
			if !fresh.Equal(cold) {
				t.Errorf("%s: cached answer (%d tuples) != fresh %s (%d tuples)",
					qs, cold.Len(), strat, fresh.Len())
			}
		}
		if h, m, _ := rc.Metrics(); h != 1 || m != 1 {
			t.Errorf("%s: metrics = %d hits / %d misses, want 1/1", qs, h, m)
		}
	}
}

// TestResultCacheSingleflight launches N identical cold queries concurrently
// and asserts exactly one fixpoint ran: the obs registry's
// dl_evaluations_total counter (incremented once per engine evaluation)
// must read 1, the cache must record 1 miss and N-1 hits, and every caller
// must receive the same frozen relation.
func TestResultCacheSingleflight(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	db := chainDB(t, 64)
	snap := db.Snapshot()
	pl := NewPlanner()
	reg := obs.NewRegistry()
	rc := NewResultCacheWith(reg, 0)
	opts := Opts{Metrics: reg}

	const n = 16
	rels := make([]*storage.Relation, n)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			rel, _, _, err := rc.Answer(pl, sys, q, snap, opts)
			if err != nil {
				errs <- err
				return
			}
			rels[i] = rel
		}(i)
	}
	start.Done()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if rels[i] != rels[0] {
			t.Fatalf("caller %d got a different relation object", i)
		}
	}
	if !rels[0].Frozen() {
		t.Error("published relation not frozen")
	}
	if got := reg.Counter("dl_evaluations_total").Value(); got != 1 {
		t.Errorf("dl_evaluations_total = %d, want 1 (singleflight)", got)
	}
	hits, misses, _ := rc.Metrics()
	if misses != 1 || hits != n-1 {
		t.Errorf("metrics = %d hits / %d misses, want %d/1", hits, misses, n-1)
	}
}

// TestResultCacheEpochInvalidation: a write advances the epoch, so the next
// snapshot misses the cache and sees the new fact; the old epoch's entry
// still serves readers pinned to the old snapshot. The all-free TC query is
// the program's fixpoint, so each epoch also keeps the view it selects from.
func TestResultCacheEpochInvalidation(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, _ := parser.ParseQuery("?- p(X, Y).")
	db := chainDB(t, 6)
	pl := NewPlanner()
	rc := NewResultCache(0)

	snap1 := db.Snapshot()
	old, _, _, err := rc.Answer(pl, sys, q, snap1, Opts{})
	if err != nil {
		t.Fatal(err)
	}

	// Extend the chain: a(n5, n6) and the matching exit edge.
	for _, pred := range []string{"a", "e"} {
		if _, err := db.Insert(pred, "n5", "n6"); err != nil {
			t.Fatal(err)
		}
	}
	snap2 := db.Snapshot()
	if snap2.Epoch() == snap1.Epoch() {
		t.Fatal("write did not advance the epoch")
	}
	fresh, _, cached, err := rc.Answer(pl, sys, q, snap2, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("new epoch served a stale cached answer")
	}
	if fresh.Len() <= old.Len() {
		t.Errorf("new epoch answer has %d tuples, want > %d", fresh.Len(), old.Len())
	}
	// The old epoch's entry is still live for pinned readers.
	again, _, cached, err := rc.Answer(pl, sys, q, snap1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || again != old {
		t.Errorf("old epoch lookup: cached=%v same=%v, want true/true", cached, again == old)
	}
	viewAt(t, rc, snap1)
	viewAt(t, rc, snap2)
	if rc.Len() != 4 {
		t.Errorf("cache holds %d entries, want 4 (an answer and a view per epoch)", rc.Len())
	}
}

// TestResultCacheEviction fills a tiny byte budget with distinct queries and
// checks LRU entries are evicted (never the newest) while the gauges track
// the live footprint.
func TestResultCacheEviction(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 32)
	snap := db.Snapshot()
	pl := NewPlanner()
	reg := obs.NewRegistry()
	rc := NewResultCacheWith(reg, 8<<10) // 8 KiB: a handful of answers at most

	const queries = 8
	for i := 0; i < queries; i++ {
		q, err := parser.ParseQuery(fmt.Sprintf("?- p(n%d, Y).", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, evictions := rc.Metrics()
	if evictions == 0 {
		t.Fatalf("no evictions after %d answers into an 8 KiB budget", queries)
	}
	if rc.Len() == 0 || rc.Len() >= queries {
		t.Errorf("cache holds %d entries, want in (0, %d)", rc.Len(), queries)
	}
	if int(reg.Gauge("dl_resultcache_entries").Value()) != rc.Len() {
		t.Errorf("entries gauge %d != Len %d", reg.Gauge("dl_resultcache_entries").Value(), rc.Len())
	}
	if reg.Gauge("dl_resultcache_bytes").Value() != rc.Bytes() {
		t.Errorf("bytes gauge %d != Bytes %d", reg.Gauge("dl_resultcache_bytes").Value(), rc.Bytes())
	}
	// The most recent query must have survived (newest is never evicted).
	q, _ := parser.ParseQuery(fmt.Sprintf("?- p(n%d, Y).", queries-1))
	if _, _, cached, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil || !cached {
		t.Errorf("newest entry evicted: cached=%v err=%v", cached, err)
	}
}

// TestResultCacheErrorNotCached: a failed compute is returned to its waiters
// but never inserted, so the next caller retries.
func TestResultCacheErrorNotCached(t *testing.T) {
	rc := NewResultCache(0)
	boom := errors.New("boom")
	calls := 0
	fail := func(<-chan struct{}) (*storage.Relation, Stats, error) {
		calls++
		return nil, Stats{}, boom
	}
	if _, _, _, err := doQ(rc, nil, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if rc.Len() != 0 {
		t.Fatalf("error was cached (%d entries)", rc.Len())
	}
	ok := func(<-chan struct{}) (*storage.Relation, Stats, error) {
		calls++
		return storage.NewRelation(1), Stats{}, nil
	}
	if _, _, cached, err := doQ(rc, nil, ok); err != nil || cached {
		t.Fatalf("retry: cached=%v err=%v, want fresh compute", cached, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	if rc.Len() != 1 {
		t.Fatalf("successful retry not cached (%d entries)", rc.Len())
	}
}

// TestResultCacheDoPanic: a panicking compute used to leave its flight
// registered forever, wedging the key (every later caller blocked on a
// done channel nobody would close). The panic must propagate to the
// computing caller, concurrent waiters must unblock with an error, and the
// key must stay usable.
func TestResultCacheDoPanic(t *testing.T) {
	rc := NewResultCache(0)
	entered := make(chan struct{})
	release := make(chan struct{})

	waiterErr := make(chan error, 1)
	go func() {
		<-entered
		// Let the compute proceed to its panic only once this goroutine is
		// about to join the flight.
		close(release)
		_, _, _, err := doQ(rc, nil, func(<-chan struct{}) (*storage.Relation, Stats, error) {
			return storage.NewRelation(1), Stats{}, nil
		})
		waiterErr <- err
	}()

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		doQ(rc, nil, func(<-chan struct{}) (*storage.Relation, Stats, error) {
			close(entered)
			<-release
			panic("compute exploded")
		})
	}()

	// The waiter either rode the panicked flight (error) or started its own
	// compute after the flight was unregistered (success) — it must not hang.
	if err := <-waiterErr; err != nil && !strings.Contains(err.Error(), "panicked") {
		t.Errorf("waiter error = %v, want a panicked-compute error or nil", err)
	}
	if rc.Len() != 0 {
		t.Fatalf("panicked compute left %d cached entries", rc.Len())
	}
	// The key is not wedged: a fresh compute succeeds and caches.
	rel, _, cached, err := doQ(rc, nil, func(<-chan struct{}) (*storage.Relation, Stats, error) {
		return storage.NewRelation(1), Stats{}, nil
	})
	if err != nil || cached || rel == nil {
		t.Fatalf("post-panic compute: rel=%v cached=%v err=%v", rel, cached, err)
	}
	if rc.Len() != 1 {
		t.Fatalf("post-panic compute not cached (%d entries)", rc.Len())
	}
}

// doQ runs do for the test key (prog, q, epoch 1) with a compute that keeps
// no maintenance state.
func doQ(rc *ResultCache, abort <-chan struct{}, compute func(abort <-chan struct{}) (*storage.Relation, Stats, error)) (*storage.Relation, Stats, bool, error) {
	key := resultKey{program: "prog", query: "q", epoch: 1}
	rel, _, st, hit, err := rc.do(key, ast.Query{}, false, abort, func(fa <-chan struct{}) (*storage.Relation, any, Stats, error) {
		rel, st, err := compute(fa)
		return rel, nil, st, err
	})
	return rel, st, hit, err
}

// flightState polls the cache's flight table for the key's live flight and
// returns its current waiter count (0 when no flight is registered).
func flightWaiters(rc *ResultCache, program, query string, epoch uint64) int {
	key := resultKey{program: program, query: query, epoch: epoch}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	f, ok := rc.flight[key]
	if !ok {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waiters
}

// TestResultCacheWaiterCancel: a waiter abandoning an in-flight compute
// unblocks with ErrCanceled while the compute keeps running for its leader,
// and the finished result is cached normally.
func TestResultCacheWaiterCancel(t *testing.T) {
	rc := NewResultCache(0)
	started := make(chan struct{})
	release := make(chan struct{})
	computeAborted := make(chan struct{}, 1)

	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := doQ(rc, nil, func(abort <-chan struct{}) (*storage.Relation, Stats, error) {
			close(started)
			select {
			case <-abort:
				computeAborted <- struct{}{}
				return nil, Stats{}, fmt.Errorf("compute: %w", ErrCanceled)
			case <-release:
			}
			return storage.NewRelation(1), Stats{}, nil
		})
		leaderDone <- err
	}()
	<-started

	waiterAbort := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		_, _, _, err := doQ(rc, waiterAbort, func(<-chan struct{}) (*storage.Relation, Stats, error) {
			t.Error("waiter ran its own compute instead of joining the flight")
			return nil, Stats{}, nil
		})
		waiterDone <- err
	}()
	// The waiter has joined once the flight counts two interested callers.
	deadline := time.Now().Add(5 * time.Second)
	for flightWaiters(rc, "prog", "q", 1) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	close(waiterAbort)
	if err := <-waiterDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled waiter err = %v, want ErrCanceled", err)
	}
	select {
	case <-computeAborted:
		t.Fatal("waiter's cancel aborted the compute despite the leader's interest")
	default:
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v after a waiter canceled", err)
	}
	if rc.Len() != 1 {
		t.Fatalf("finished compute not cached (%d entries)", rc.Len())
	}
}

// TestResultCacheAllCallersCancel: when every interested caller gives up,
// the flight's abort channel closes and the compute's cancellation error
// reaches the (already departed) leader; nothing is cached and the key is
// immediately reusable.
func TestResultCacheAllCallersCancel(t *testing.T) {
	rc := NewResultCache(0)
	started := make(chan struct{})
	leaderAbort := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := doQ(rc, leaderAbort, func(abort <-chan struct{}) (*storage.Relation, Stats, error) {
			close(started)
			<-abort // the flight's merged abort, not the caller's channel
			return nil, Stats{}, fmt.Errorf("compute: %w", ErrCanceled)
		})
		leaderDone <- err
	}()
	<-started
	close(leaderAbort)
	if err := <-leaderDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned leader err = %v, want ErrCanceled", err)
	}
	if rc.Len() != 0 {
		t.Fatalf("canceled compute was cached (%d entries)", rc.Len())
	}
	// The key computes fresh for the next caller.
	rel, _, cached, err := doQ(rc, nil, func(<-chan struct{}) (*storage.Relation, Stats, error) {
		return storage.NewRelation(1), Stats{}, nil
	})
	if err != nil || cached || rel == nil {
		t.Fatalf("retry after cancel: rel=%v cached=%v err=%v, want fresh compute", rel, cached, err)
	}
}
