package eval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// raceRound applies write round i to db: a deterministic fact sequence, so a
// fresh database replaying rounds 0..k-1 reproduces — including symbol
// interning order, hence raw Values — exactly the state a snapshot taken
// after k rounds pinned.
func raceRound(db *storage.Database, i int) error {
	type fact struct {
		pred  string
		names []string
	}
	facts := []fact{
		// Chain extension for the TC system (a) and the shared exit (e).
		{"a", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}},
		{"e", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}},
		// Small-domain churn for the bounded (s10-shape) system.
		{"b", []string{fmt.Sprintf("u%d", i%7)}},
		{"c", []string{fmt.Sprintf("n%d", i%8), fmt.Sprintf("u%d", i%7)}},
		// Rotational-cycle EDB for the stable (s4a-shape) system.
		{"sa", []string{fmt.Sprintf("s%d", i%6), fmt.Sprintf("s%d", (i+1)%6)}},
		{"sb", []string{fmt.Sprintf("s%d", (i+2)%6), fmt.Sprintf("s%d", i%6)}},
		{"sc", []string{fmt.Sprintf("s%d", (i+1)%6), fmt.Sprintf("s%d", (i+3)%6)}},
		{"e3", []string{fmt.Sprintf("s%d", i%6), fmt.Sprintf("s%d", (i+1)%6), fmt.Sprintf("s%d", (i+2)%6)}},
	}
	for _, f := range facts {
		if _, err := db.Insert(f.pred, f.names...); err != nil {
			return err
		}
	}
	return nil
}

// TestSnapshotRaceSerialReplay is the isolation correctness test (run under
// -race by `make race`): one writer applies a deterministic write round per
// recorded answer, advancing the epoch, while concurrent readers evaluate TC,
// bounded and stable queries against pinned snapshots — through the shared
// planner and result cache, exactly the serving path. Every answer must
// equal a serial naive replay of the first k rounds, where k is the
// round count the reader's snapshot pinned. The replays run after the
// readers finish, once per (workload, k), so the oracle's cost does not
// stretch the race window the writer fills.
func TestSnapshotRaceSerialReplay(t *testing.T) {
	type workload struct {
		sys *ast.RecursiveSystem
		qs  string
	}
	workloads := []workload{
		{mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y)."), "?- p(n0, Y)."},
		{mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y)."), "?- p(X, Y)."},
		{mustSystem(t, "p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).", "p(X, Y) :- e(X, Y)."), "?- p(X, Y)."},
		{mustSystem(t, "p(X1, X2, X3) :- sa(X1, Y3), sb(X2, Y1), sc(Y2, X3), p(Y1, Y2, Y3).",
			"p(X, Y, Z) :- e3(X, Y, Z)."), "?- p(X, Y, Z)."},
	}
	// Pin the class each workload exercises, so the test keeps covering the
	// TC kernel (and the generic route of its all-free query), the bounded
	// unroller and the stabilized plan even if the shapes drift.
	wantKinds := []PlanKind{PlanTC, PlanTC, PlanBounded, PlanStable}
	for i, w := range workloads {
		p, err := CompilePlanOpts(w.sys, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != wantKinds[i] {
			t.Fatalf("workload %d compiles to %v, want %v", i, p.Kind, wantKinds[i])
		}
	}
	queries := make([]ast.Query, len(workloads))
	for i, w := range workloads {
		q, err := parser.ParseQuery(w.qs)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}

	db := storage.NewDatabase()
	var mu sync.Mutex // the database's single-writer lock
	written := 0
	for ; written < 4; written++ {
		if err := raceRound(db, written); err != nil {
			t.Fatal(err)
		}
	}
	// pin takes a snapshot plus the round count it covers, atomically.
	pin := func() (*storage.Snapshot, int) {
		mu.Lock()
		defer mu.Unlock()
		return db.Snapshot(), written
	}

	pl := NewPlanner()
	rc := NewResultCache(0)

	const readers = 6
	const rounds = 12
	// The writer applies one round per recorded reader answer, taken as an
	// unbuffered hand-off: the readers cannot run ahead of it, so their
	// snapshots keep pinning new rounds while writes land.
	tick := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for range tick {
			mu.Lock()
			if err := raceRound(db, written); err != nil {
				t.Error(err)
				mu.Unlock()
				return
			}
			written++
			db.Snapshot() // advance the epoch under the writer lock
			mu.Unlock()
		}
	}()

	// seen is one reader answer awaiting its replay.
	type seen struct {
		r, i, wi, k int
		epoch       uint64
		got         *storage.Relation
	}
	var seenMu sync.Mutex
	var answers []seen
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap, k := pin()
				wi := (r + i) % len(workloads)
				got, _, _, err := rc.Answer(pl, workloads[wi].sys, queries[wi], snap, Opts{})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				seenMu.Lock()
				answers = append(answers, seen{r, i, wi, k, snap.Epoch(), got})
				seenMu.Unlock()
				tick <- struct{}{}
			}
		}(r)
	}
	wg.Wait()
	close(tick)
	<-writerDone

	replays := make(map[[2]int]*storage.Relation)
	for _, a := range answers {
		want, ok := replays[[2]int{a.wi, a.k}]
		if !ok {
			// Serial replay of the same k rounds in a private database.
			ref := storage.NewDatabase()
			for j := 0; j < a.k; j++ {
				if err := raceRound(ref, j); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if want, _, err = Answer(StrategyNaive, workloads[a.wi].sys, queries[a.wi], ref); err != nil {
				t.Fatalf("replay: %v", err)
			}
			replays[[2]int{a.wi, a.k}] = want
		}
		if !a.got.Equal(want) {
			t.Errorf("reader %d round %d (workload %d, epoch %d, k=%d): snapshot answer %d tuples, serial replay %d",
				a.r, a.i, a.wi, a.epoch, a.k, a.got.Len(), want.Len())
		}
	}
	t.Logf("%d answers over %d distinct (workload, k) pairs", len(answers), len(replays))
	if 4*len(replays) < len(answers) {
		t.Errorf("only %d distinct (workload, k) pairs among %d answers: the reads did not race the writes", len(replays), len(answers))
	}
}
