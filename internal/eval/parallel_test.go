package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/storage"
)

// dumpIDB renders every IDB relation of the program deterministically, so
// two evaluations can be compared byte for byte.
func dumpIDB(prog *ast.Program, out *storage.Database) string {
	s := ""
	for _, pred := range prog.IDBPreds() {
		s += out.Dump(pred)
	}
	return s
}

// TestParallelMatchesNaiveOnRandomSystems: the round driver must produce
// byte-for-byte the same IDB as the naive oracle on randomly generated
// recursive systems across all classes, at every pool size from 1 (the
// SemiNaiveOpts configuration) to 4.
func TestParallelMatchesNaiveOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		db, err := dlgen.RandomDB(sys, 5, 12, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		prog := sys.Program()
		ref, refStats, err := NaiveOpts(prog, db, Opts{})
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		par, parStats, err := ParallelSemiNaiveOpts(prog, db, Opts{workers: 1 + trial%4})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if a, b := dumpIDB(prog, ref), dumpIDB(prog, par); a != b {
			t.Fatalf("trial %d (%v): parallel IDB differs from naive\nnaive:\n%s\npar:\n%s",
				trial, sys.Recursive, a, b)
		}
		if refStats.Derived != parStats.Derived {
			t.Errorf("trial %d: derived %d (naive) vs %d (par)", trial, refStats.Derived, parStats.Derived)
		}
	}
}

// TestParallelMatchesNaiveWithNegation: multi-strata programs with
// negation over random graphs — same byte-for-byte agreement.
func TestParallelMatchesNaiveWithNegation(t *testing.T) {
	prog, _ := parseProg(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		src(X) :- e(X, Y).
		sink(Y) :- e(X, Y).
		boundary(X) :- src(X), not sink(X).
		boundary(X) :- sink(X), not src(X).
		far(X, Y) :- tc(X, Y), not e(X, Y).
		island(X) :- src(X), not far(X, X).
	`)
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		db := storage.NewDatabase()
		if err := storage.GenRandomGraph(db, "e", 10+trial, 18+2*trial, int64(trial)); err != nil {
			t.Fatal(err)
		}
		ref, _, err := NaiveOpts(prog, db, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := ParallelSemiNaiveOpts(prog, db, Opts{workers: 1 + trial%3})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := dumpIDB(prog, ref), dumpIDB(prog, par); a != b {
			t.Fatalf("trial %d: negation program differs\nnaive:\n%s\npar:\n%s", trial, a, b)
		}
	}
}

// TestParallelDeterministicAcrossWorkerCounts: the merge order is fixed by
// task order, so the result must not depend on the pool size or scheduling.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", 40, 90, 3); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 2, 3, 8} {
		out, _, err := ParallelSemiNaiveOpts(prog, db, Opts{workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := dumpIDB(prog, out)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
	}
}

// TestSemiNaiveRoundCounts is the regression test for the round-0 counter:
// a stratum's seed pass is one fixpoint round no matter how many
// non-recursive rules it has, and the parallel engine reports the same
// round structure as SemiNaiveOpts on single-rule recursion. SemiNaiveOpts
// is the round driver on exactly one worker: every round reports one.
func TestSemiNaiveRoundCounts(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- f(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	db := storage.NewDatabase()
	// e: n0 -> n1 -> n2 -> n3; f: one disconnected edge.
	if err := storage.GenChain(db, "e", 4); err != nil {
		t.Fatal(err)
	}
	db.Insert("f", "m0", "m1")
	// Round 1 seeds both exit rules (4 tuples); rounds 2 and 3 derive the
	// length-2 and length-3 paths; round 4 derives nothing and stops.
	const wantRounds, wantDerived = 4, 7
	_, seqStats, err := SemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Rounds != wantRounds {
		t.Errorf("seminaive rounds = %d, want %d (seed pass must count once, not per rule)",
			seqStats.Rounds, wantRounds)
	}
	if seqStats.Derived != wantDerived {
		t.Errorf("seminaive derived = %d, want %d", seqStats.Derived, wantDerived)
	}
	if len(seqStats.Trace) != wantRounds {
		t.Errorf("seminaive trace has %d records, want %d", len(seqStats.Trace), wantRounds)
	}
	for _, r := range seqStats.Trace {
		if r.Workers != 1 {
			t.Errorf("seminaive round %d ran on %d workers, want 1", r.Round, r.Workers)
		}
	}
	_, parStats, err := ParallelSemiNaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if parStats.Rounds != wantRounds || parStats.Derived != wantDerived {
		t.Errorf("parallel rounds=%d derived=%d, want %d and %d",
			parStats.Rounds, parStats.Derived, wantRounds, wantDerived)
	}
}

// TestSemiNaiveDerivedMatchesIDBGrowth is the regression test for the
// Derived counter: across seed and delta rounds and across strata, Derived
// must equal the growth of the IDB over the seeded program facts.
func TestSemiNaiveDerivedMatchesIDBGrowth(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(a0, a1).
		q(X) :- p(X, Y), not e(X, Y).
	`)
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", 15, 30, 9); err != nil {
		t.Fatal(err)
	}
	idbFacts := len(prog.Facts) // p(a0, a1) is seeded, not derived
	run := func(name string, engine func(*ast.Program, *storage.Database) (*storage.Database, Stats, error)) {
		out, st, err := engine(prog, db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0
		for _, pred := range prog.IDBPreds() {
			total += out.Rel(pred).Len()
		}
		if st.Derived != total-idbFacts {
			t.Errorf("%s: Derived = %d, want %d (final IDB %d − %d seeded facts)",
				name, st.Derived, total-idbFacts, total, idbFacts)
		}
	}
	run("seminaive", func(prog *ast.Program, db *storage.Database) (*storage.Database, Stats, error) {
		return SemiNaiveOpts(prog, db, Opts{})
	})
	run("parallel", func(prog *ast.Program, db *storage.Database) (*storage.Database, Stats, error) {
		return ParallelSemiNaiveOpts(prog, db, Opts{})
	})
}

// TestParallelRoundTrace: the per-round records must be internally
// consistent and must reconcile with the aggregate Stats.
func TestParallelRoundTrace(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	db := storage.NewDatabase()
	if err := storage.GenChain(db, "e", 16); err != nil {
		t.Fatal(err)
	}
	_, st, err := ParallelSemiNaiveOpts(prog, db, Opts{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) != st.Rounds {
		t.Fatalf("trace has %d records, want one per round (%d)", len(st.Trace), st.Rounds)
	}
	sumDerived, sumAttempted := 0, 0
	for i, r := range st.Trace {
		if r.Round != i+1 {
			t.Errorf("record %d has round number %d", i, r.Round)
		}
		// A round uses no more workers than it has tasks (the seed round
		// and the empty final round have one).
		if want := min(2, r.Tasks); r.Workers != want {
			t.Errorf("record %d reports %d workers for %d tasks, want %d", i, r.Workers, r.Tasks, want)
		}
		if r.Duration < 0 || r.Busy < 0 || r.Utilization() < 0 || r.Utilization() > 1 {
			t.Errorf("record %d has inconsistent timing: %+v", i, r)
		}
		sumDerived += r.Derived
		sumAttempted += r.Attempted
	}
	if sumDerived != st.Derived {
		t.Errorf("trace derived sums to %d, stats say %d", sumDerived, st.Derived)
	}
	if sumAttempted != st.Facts {
		t.Errorf("trace attempted sums to %d, stats say %d", sumAttempted, st.Facts)
	}
	// The chain TC has one seed round, one empty final round, and one
	// delta round per path length in between.
	if got := st.Trace[len(st.Trace)-1]; got.Derived != 0 {
		t.Errorf("final round derived %d, want 0", got.Derived)
	}
}

// TestParallelRejectsUnstratifiable: error paths must match the sequential
// engine (and not hang the worker pool).
func TestParallelRejectsUnstratifiable(t *testing.T) {
	prog, _ := parseProg(t, `
		win(X) :- move(X, Y), not win(Y).
	`)
	db := storage.NewDatabase()
	db.Insert("move", "a", "b")
	if _, _, err := ParallelSemiNaiveOpts(prog, db, Opts{}); err == nil {
		t.Fatal("unstratifiable program accepted")
	}
}

// TestParallelEmptyAndFactOnlyPrograms: degenerate shapes must not deadlock
// or miscount.
func TestParallelEmptyAndFactOnlyPrograms(t *testing.T) {
	db := storage.NewDatabase()
	out, st, err := ParallelSemiNaiveOpts(&ast.Program{}, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || st.Derived != 0 {
		t.Fatalf("empty program: %+v", st)
	}
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	db2 := storage.NewDatabase()
	db2.Insert("e", "a", "b")
	out2, st2, err := ParallelSemiNaiveOpts(prog, db2, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rel("p").Len() != 0 {
		t.Errorf("recursion with no exit derived %d tuples", out2.Rel("p").Len())
	}
	if st2.Derived != 0 {
		t.Errorf("derived = %d, want 0", st2.Derived)
	}
}

// TestParallelManyStrataStress drives a deeper stratification pyramid so
// the race target exercises repeated pool startup/teardown across strata.
func TestParallelManyStrataStress(t *testing.T) {
	src := `
		t0(X, Y) :- e(X, Y).
		t0(X, Y) :- e(X, Z), t0(Z, Y).
	`
	for i := 1; i < 5; i++ {
		src += fmt.Sprintf("t%d(X, Y) :- t%d(X, Y), not skip%d(X).\n", i, i-1, i)
	}
	prog, _ := parseProg(t, src)
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", 12, 24, 5); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		db.Insert(fmt.Sprintf("skip%d", i), fmt.Sprintf("n%d", i))
	}
	ref, _, err := NaiveOpts(prog, db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := ParallelSemiNaiveOpts(prog, db, Opts{workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dumpIDB(prog, ref), dumpIDB(prog, par); a != b {
		t.Fatalf("stratified pyramid differs\nnaive:\n%s\npar:\n%s", a, b)
	}
}
