package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dlgen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// drainStream pulls the iterator dry and returns its rows sorted, failing
// the test if the stream ended with an error.
func drainStream(t testing.TB, it Iterator) []string {
	t.Helper()
	defer it.Close()
	var rows []string
	for it.Next() {
		rows = append(rows, fmt.Sprint(it.Tuple()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	sort.Strings(rows)
	return rows
}

// relRows renders a relation as sorted row strings for set comparison.
func relRows(rel *storage.Relation) []string {
	var rows []string
	if rel != nil {
		rel.Each(func(tp storage.Tuple) bool {
			rows = append(rows, fmt.Sprint(tp))
			return true
		})
	}
	sort.Strings(rows)
	return rows
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamDifferentialPaperPlans: for one fixture per plan class, the
// streamed answer set must equal the materialized one on random databases
// and queries — the core "streaming changes delivery, not semantics" claim.
func TestStreamDifferentialPaperPlans(t *testing.T) {
	fixtures := []struct {
		id   string
		kind PlanKind
	}{
		{"s1a", PlanTC},
		{"s8", PlanBounded},
		{"s4a", PlanStable},
		{"s9", PlanGeneric},
	}
	rng := rand.New(rand.NewSource(7))
	for _, f := range fixtures {
		sys := mustStatement(t, f.id).System()
		p, err := CompilePlanOpts(sys, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		if p.Kind != f.kind {
			t.Fatalf("%s: plan %v, want %v", f.id, p.Kind, f.kind)
		}
		for seed := int64(1); seed <= 3; seed++ {
			db, err := dlgen.RandomDB(sys, 5, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				q := dlgen.RandomQuery(rng, sys, 5)
				ref, _, err := p.AnswerOpts(q, db, Opts{})
				if err != nil {
					t.Fatalf("%s %v: %v", f.id, q, err)
				}
				it := p.Stream(q, db, Opts{}, 0)
				got := drainStream(t, it)
				if !rowsEqual(got, relRows(ref)) {
					t.Errorf("%s %v (plan %v): streamed %d rows, materialized %d",
						f.id, q, p.Kind, len(got), ref.Len())
				}
				if st, want := it.Stats(), servedKind(p.Kind, q); st.Plan == nil || st.Plan.Strategy != want.String() || st.Plan.Class != p.Class {
					t.Errorf("%s %v: stream stats plan %+v, want %v class %s", f.id, q, st.Plan, want, p.Class)
				}
			}
		}
	}
}

// TestStreamTCAllAdornments runs the streaming TC kernel through every
// adornment on both orientations against the materializing kernel.
func TestStreamTCAllAdornments(t *testing.T) {
	rules := []string{
		"p(X, Y) :- a(X, Z), p(Z, Y).",
		"p(X, Y) :- p(X, Z), a(Z, Y).",
	}
	queries := []string{
		"?- p(X, Y).",
		"?- p(n1, Y).",
		"?- p(X, n2).",
		"?- p(n1, n2).",
		"?- p(n0, n0).",
		"?- p(ghost, Y).",
	}
	for _, rule := range rules {
		sys := mustSystem(t, rule, "p(X, Y) :- e(X, Y).")
		p, err := CompilePlanOpts(sys, Opts{})
		if err != nil || p.Kind != PlanTC {
			t.Fatalf("%s: plan %v err %v, want PlanTC", rule, p, err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			db := tcTestDB(t, "a", 8, 14, 6, seed)
			for _, qs := range queries {
				q, err := parser.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, err := p.AnswerOpts(q, db, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				got := drainStream(t, p.Stream(q, db, Opts{}, 0))
				if !rowsEqual(got, relRows(ref)) {
					t.Errorf("%s seed %d %s: streamed %d rows, materialized %d",
						rule, seed, qs, len(got), ref.Len())
				}
			}
		}
	}
}

// TestStreamDifferentialRandomSystems: whatever the compiler picks for a
// random system, streaming must agree with the naive oracle.
func TestStreamDifferentialRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		p, err := CompilePlanOpts(sys, Opts{})
		if err != nil {
			t.Fatalf("%v: %v", sys.Recursive, err)
		}
		db, err := dlgen.RandomDB(sys, 4, 8, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			q := dlgen.RandomQuery(rng, sys, 4)
			ref, _, err := Answer(StrategyNaive, sys, q, db)
			if err != nil {
				t.Fatal(err)
			}
			got := drainStream(t, p.Stream(q, db, Opts{}, 0))
			if !rowsEqual(got, relRows(ref)) {
				t.Errorf("%v %v (plan %v): streamed %d rows, naive %d",
					sys.Recursive, q, p.Kind, len(got), ref.Len())
			}
		}
	}
}

// TestStreamProgramMatchesParallel: a multi-predicate program (no single
// recursive system, so a classless generic plan) streams, on the parallel
// engine, the same rows the naive oracle materializes.
func TestStreamProgramMatchesParallel(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
s(X) :- t(n0, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := storage.GenChain(db, "e", 12); err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"?- t(X, Y).", "?- t(n3, Y).", "?- s(X).", "?- s(n5)."} {
		q, err := parser.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := NaiveOpts(prog, db, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := AnswerQuery(out, q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompilePlanOpts(prog, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != PlanGeneric || p.Class != "" {
			t.Fatalf("plan kind=%v class=%q, want the classless generic plan", p.Kind, p.Class)
		}
		got := drainStream(t, p.Stream(q, db, Opts{}, 0))
		if !rowsEqual(got, relRows(ref)) {
			t.Errorf("%s: streamed %d rows, naive %d", qs, len(got), ref.Len())
		}
	}
}

// TestStreamLimit: a limit cuts the stream at exactly k rows with Truncated
// set, deriving >=5x fewer tuples than the full answer; a limit past the
// answer set delivers everything without it.
func TestStreamLimit(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	p, err := CompilePlanOpts(sys, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 100)
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	full, _, err := p.AnswerOpts(q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	fullRows := relRows(full)

	it := p.Stream(q, db, Opts{}, 10)
	var got []string
	for it.Next() {
		got = append(got, fmt.Sprint(it.Tuple()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("limited stream error: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("limited stream delivered %d rows, want 10", len(got))
	}
	st := it.Stats()
	if !st.Truncated {
		t.Error("limited stream did not set Stats.Truncated")
	}
	if st.Derived*5 > full.Len() {
		t.Errorf("limited stream derived %d tuples, full evaluation %d: want >=5x fewer",
			st.Derived, full.Len())
	}
	it.Close()
	sort.Strings(got)
	all := make(map[string]bool, len(fullRows))
	for _, r := range fullRows {
		all[r] = true
	}
	for _, r := range got {
		if !all[r] {
			t.Errorf("limited stream emitted %s, not in the full answer set", r)
		}
	}

	if got := drainStream(t, p.Stream(q, db, Opts{}, full.Len()+5)); !rowsEqual(got, fullRows) {
		t.Errorf("over-limit stream delivered %d rows, want %d", len(got), len(fullRows))
	}

	// Truncated means "more existed" on the evaluating and the cached path
	// alike — in particular not at a limit of exactly the answer count.
	for _, c := range []struct {
		limit     int
		truncated bool
	}{{10, true}, {full.Len() - 1, true}, {full.Len(), false}, {full.Len() + 5, false}} {
		for name, it := range map[string]Iterator{
			"evaluated": p.Stream(q, db, Opts{}, c.limit),
			"cached":    NewRelationIterator(full, c.limit, Stats{}),
		} {
			n := len(drainStream(t, it))
			if want := min(c.limit, full.Len()); n != want || it.Stats().Truncated != c.truncated {
				t.Errorf("%s limit %d of %d: %d rows truncated=%v, want %d rows truncated=%v",
					name, c.limit, full.Len(), n, it.Stats().Truncated, want, c.truncated)
			}
		}
	}
}

// TestStreamBoundTargetEarlyExit: a fully bound tc(a, b)? must stop the BFS
// at the level proving the answer instead of sweeping the whole chain.
func TestStreamBoundTargetEarlyExit(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	p, err := CompilePlanOpts(sys, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 200)
	q, _ := parser.ParseQuery("?- p(n0, n5).")
	ref, mst, err := p.AnswerOpts(q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != 1 {
		t.Fatalf("bound-target answer set = %d, want 1", ref.Len())
	}
	it := p.Stream(q, db, Opts{}, 0)
	got := drainStream(t, it)
	if !rowsEqual(got, relRows(ref)) {
		t.Fatalf("streamed %v, want %v", got, relRows(ref))
	}
	st := it.Stats()
	if st.Truncated {
		t.Error("goal-directed exit marked Truncated: the answer set is complete")
	}
	if st.Facts*10 > mst.Facts {
		t.Errorf("goal-directed stream attempted %d facts, materializing kernel %d: expected >=10x less work",
			st.Facts, mst.Facts)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base, tolerating runtime bookkeeping goroutines that exit lazily.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCloseMidStream: abandoning an iterator mid-stream stops the
// producing fixpoint and leaks no goroutines; Err stays nil (the stop was
// the consumer's own doing).
func TestStreamCloseMidStream(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	p, err := CompilePlanOpts(sys, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 300)
	q, _ := parser.ParseQuery("?- p(X, Y).")

	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		it := p.Stream(q, db, Opts{Abort: make(chan struct{})}, 0)
		for j := 0; j < 3; j++ {
			if !it.Next() {
				t.Fatal("stream ended before 3 rows on a 300-chain closure")
			}
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatalf("closed stream reports error: %v", err)
		}
	}
	waitGoroutines(t, base)

	// Same through the generic parallel path, whose producer fans out
	// worker goroutines per round.
	prog := sys.Program()
	base = runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		it := (&Plan{Kind: PlanGeneric, fix: prog}).Stream(q, db, Opts{workers: 4}, 0)
		if !it.Next() {
			t.Fatal("parallel stream ended immediately")
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatalf("closed parallel stream reports error: %v", err)
		}
	}
	waitGoroutines(t, base)
}

// TestStreamExternalAbort: closing Opts.Abort mid-stream ends the stream
// with ErrCanceled — a disconnected client's partial answer set is never
// mistaken for a complete one.
func TestStreamExternalAbort(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	p, err := CompilePlanOpts(sys, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 300)
	q, _ := parser.ParseQuery("?- p(X, Y).")

	base := runtime.NumGoroutine()
	abort := make(chan struct{})
	it := p.Stream(q, db, Opts{Abort: abort}, 0)
	for j := 0; j < 2; j++ {
		if !it.Next() {
			t.Fatal("stream ended before 2 rows")
		}
	}
	close(abort)
	rows := 2
	for it.Next() {
		rows++ // rows already buffered may still drain
	}
	if err := it.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("aborted stream Err = %v, want ErrCanceled", err)
	}
	full, _, err := p.AnswerOpts(q, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rows >= full.Len() {
		t.Errorf("aborted stream delivered all %d rows; abort did not stop the fixpoint", rows)
	}
	it.Close()
	if err := it.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err after Close = %v, want ErrCanceled (the cancel was external)", err)
	}
	waitGoroutines(t, base)
}

// TestRelationIterator covers the zero-copy cached path: full drain,
// limited drain with Truncated, nil relation.
func TestRelationIterator(t *testing.T) {
	rel := storage.NewRelation(2)
	for i := 0; i < 5; i++ {
		rel.Insert(storage.Tuple{storage.Value(i), storage.Value(i + 1)})
	}
	if got := drainStream(t, NewRelationIterator(rel, 0, Stats{})); len(got) != 5 {
		t.Fatalf("full drain = %d rows, want 5", len(got))
	}
	it := NewRelationIterator(rel, 2, Stats{Rounds: 7})
	n := 0
	for it.Next() {
		n++
	}
	if n != 2 || !it.Stats().Truncated || it.Stats().Rounds != 7 {
		t.Fatalf("limited drain: n=%d stats=%+v, want 2 rows, Truncated, Rounds=7", n, it.Stats())
	}
	it = NewRelationIterator(rel, 5, Stats{})
	for it.Next() {
	}
	if it.Stats().Truncated {
		t.Error("exact-limit drain marked Truncated: nothing was cut off")
	}
	if got := drainStream(t, NewRelationIterator(nil, 0, Stats{})); len(got) != 0 {
		t.Fatalf("nil relation iterator delivered %d rows", len(got))
	}
}
