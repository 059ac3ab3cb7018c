package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// The sharded engine's contract is byte-for-byte identity with sequential
// semi-naive: hash partitioning only moves ownership of frontier tuples
// between workers, never changes what is derivable, and the barrier merge
// is single-threaded in task order so even the insertion order of the
// output relations is deterministic. Every test here sets Opts.Shards — the
// only way an evaluation shards.

// TestShardedMatchesSemiNaiveOnRandomSystems: randomly generated recursive
// systems across all classes, forced shard counts 2..5 with varying worker
// counts.
func TestShardedMatchesSemiNaiveOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		sys := dlgen.RandomSystem(rng, dlgen.Config{MaxArity: 3, MaxAtoms: 3})
		db, err := dlgen.RandomDB(sys, 5, 12, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		prog := sys.Program()
		seq, seqStats, err := SemiNaive(prog, db)
		if err != nil {
			t.Fatalf("trial %d seminaive: %v", trial, err)
		}
		shards := 2 + trial%4
		sh, shStats, err := ParallelSemiNaiveOpts(prog, db, Opts{Shards: shards, Workers: 1 + trial%4})
		if err != nil {
			t.Fatalf("trial %d sharded: %v", trial, err)
		}
		if a, b := dumpIDB(prog, seq), dumpIDB(prog, sh); a != b {
			t.Fatalf("trial %d (%v, %d shards): sharded IDB differs from sequential\nseq:\n%s\nsharded:\n%s",
				trial, sys.Recursive, shards, a, b)
		}
		if seqStats.Derived != shStats.Derived {
			t.Errorf("trial %d: derived %d (seq) vs %d (sharded)", trial, seqStats.Derived, shStats.Derived)
		}
		if shStats.Shards != shards {
			t.Errorf("trial %d: stats report %d shards, forced %d", trial, shStats.Shards, shards)
		}
	}
}

// TestShardedMatchesSemiNaiveWithNegation: multi-strata programs with
// negation — the exchange must respect stratum boundaries exactly like the
// unsharded pool does.
func TestShardedMatchesSemiNaiveWithNegation(t *testing.T) {
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
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		db := storage.NewDatabase()
		if err := storage.GenRandomGraph(db, "e", 10+trial, 18+2*trial, int64(trial)); err != nil {
			t.Fatal(err)
		}
		seq, _, err := SemiNaive(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		sh, _, err := ParallelSemiNaiveOpts(prog, db, Opts{Shards: 2 + trial%3, Workers: 1 + trial%3})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := dumpIDB(prog, seq), dumpIDB(prog, sh); a != b {
			t.Fatalf("trial %d: negation program differs\nseq:\n%s\nsharded:\n%s", trial, a, b)
		}
	}
}

// TestShardedDeterministicAcrossShardCounts: the output must not depend on
// the shard count or the worker count — including byte-identical insertion
// order from the deterministic barrier merge.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", 40, 90, 3); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, shards := range []int{0, 1, 2, 3, 4, 8} {
		out, _, err := ParallelSemiNaiveOpts(prog, db, Opts{Shards: shards, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := dumpIDB(prog, out)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("shards=%d: result differs from shards=0", shards)
		}
	}
}

// TestShardedExchangeOnChain: a Hamiltonian chain forces long derivation
// paths whose frontier tuples keep crossing shard boundaries. The exchange
// counter must see traffic, the per-round trace must carry the shard count,
// and the result must still be the exact closure (nothing dropped or
// duplicated at any barrier: the closure of an n-chain has exactly
// n(n-1)/2 tuples).
func TestShardedExchangeOnChain(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	const n = 48
	db := storage.NewDatabase()
	if err := storage.GenChain(db, "e", n); err != nil {
		t.Fatal(err)
	}
	out, st, err := ParallelSemiNaiveOpts(prog, db, Opts{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; out.Rel("p").Len() != want {
		t.Errorf("closure has %d tuples, want %d", out.Rel("p").Len(), want)
	}
	if st.Exchanged == 0 {
		t.Error("chain closure across 4 shards exchanged no tuples")
	}
	if st.Shards != 4 {
		t.Errorf("stats report %d shards, want 4", st.Shards)
	}
	sawShards := false
	for _, r := range st.Trace {
		if r.Shards == 4 {
			sawShards = true
		}
	}
	if !sawShards {
		t.Error("no round record carries the shard count")
	}
}

// dumpRel renders an answer relation deterministically for comparison.
func dumpRel(r *storage.Relation) string {
	lines := make([]string, 0, r.Len())
	r.Each(func(tp storage.Tuple) bool {
		lines = append(lines, fmt.Sprint([]storage.Value(tp)))
		return true
	})
	sort.Strings(lines)
	s := ""
	for _, l := range lines {
		s += l + "\n"
	}
	return s
}

// TestShardedAllPlanClasses drives the auto planner's four compiled plan
// kinds (TC frontier, bounded union, stable parallel, generic parallel)
// with forced sharding and checks the answers against the unsharded run —
// the classifier's choice must be shard-transparent for free and bound
// queries alike.
func TestShardedAllPlanClasses(t *testing.T) {
	ids := []string{"s1a", "s8", "s4a", "s9"} // PlanTC, PlanBounded, PlanStable, PlanGeneric
	for _, id := range ids {
		sys := mustStatement(t, id).System()
		db, err := dlgen.RandomDB(sys, 6, 16, 99)
		if err != nil {
			t.Fatal(err)
		}
		queries := []ast.Query{allFreeQuery(sys)}
		if sys.Arity() > 0 {
			queries = append(queries, boundQueryTest(sys, db))
		}
		for qi, q := range queries {
			base, _, err := AnswerOpts(StrategyAuto, sys, q, db, Opts{Shards: 1})
			if err != nil {
				t.Fatalf("%s q%d unsharded: %v", id, qi, err)
			}
			for _, shards := range []int{2, 4} {
				sh, st, err := AnswerOpts(StrategyAuto, sys, q, db, Opts{Shards: shards})
				if err != nil {
					t.Fatalf("%s q%d shards=%d: %v", id, qi, shards, err)
				}
				if a, b := dumpRel(base), dumpRel(sh); a != b {
					t.Errorf("%s q%d shards=%d: answers differ\nbase:\n%s\nsharded:\n%s",
						id, qi, shards, a, b)
				}
				if st.Plan == nil || st.Plan.Class == "" {
					t.Errorf("%s q%d shards=%d: missing plan info", id, qi, shards)
				}
			}
		}
	}
}

// TestShardedTCComposeReportsShards: the transitive-closure frontier kernel
// has its own sharded compose path; with forced shards an all-free query
// must run it, report the shard count in the plan, and count exchanges.
func TestShardedTCComposeReportsShards(t *testing.T) {
	sys := mustStatement(t, "s1a").System()
	db := chainDB(t, 60)
	q := allFreeQuery(sys)
	base, _, err := AnswerOpts(StrategyAuto, sys, q, db, Opts{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, st, err := AnswerOpts(StrategyAuto, sys, q, db, Opts{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dumpRel(base), dumpRel(sh); a != b {
		t.Fatalf("sharded TC compose differs\nbase:\n%s\nsharded:\n%s", a, b)
	}
	if st.Shards != 4 {
		t.Errorf("stats report %d shards, want 4", st.Shards)
	}
	if st.Plan == nil || st.Plan.Shards != 4 {
		t.Errorf("plan info = %v, want shards=4", st.Plan)
	}
	if st.Exchanged == 0 {
		t.Error("60-node chain closure across 4 shards exchanged no tuples")
	}

	// The streamed all-free query runs the same compose, so it shards too.
	p, err := CompilePlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	it := p.Stream(q, db, Opts{Shards: 4, Workers: 2}, 0)
	if got := drainStream(t, it); !rowsEqual(got, relRows(base)) {
		t.Errorf("sharded streamed TC compose: %d rows, want %d", len(got), base.Len())
	}
	if st := it.Stats(); st.Shards != 4 || st.Plan == nil || st.Plan.Shards != 4 || st.Exchanged == 0 {
		t.Errorf("streamed stats shards=%d plan=%v exchanged=%d, want 4 shards and exchange traffic",
			st.Shards, st.Plan, st.Exchanged)
	}
}

// TestShardedStreamMatchesMaterialized: the streaming path runs the sharded
// core; the emitted tuple set must equal the materialized answers, and an
// early-termination limit must stop the fixpoint.
func TestShardedStreamMatchesMaterialized(t *testing.T) {
	prog, queries := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		?- p(X, Y).
	`)
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", 30, 70, 5); err != nil {
		t.Fatal(err)
	}
	q := queries[0]

	out, _, err := ParallelSemiNaiveOpts(prog, db, Opts{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnswerQuery(out, q)
	if err != nil {
		t.Fatal(err)
	}

	it := StreamProgram(prog, q, db, Opts{Shards: 3, Workers: 2}, 0)
	defer it.Close()
	got := map[string]bool{}
	for it.Next() {
		tp := it.Tuple()
		got[fmt.Sprint([]storage.Value(tp))] = true
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != want.Len() {
		t.Fatalf("stream yielded %d distinct tuples, materialized has %d", len(got), want.Len())
	}
	missing := 0
	want.Each(func(tp storage.Tuple) bool {
		if !got[fmt.Sprint([]storage.Value(tp))] {
			missing++
		}
		return true
	})
	if missing > 0 {
		t.Fatalf("stream is missing %d materialized tuples", missing)
	}

	const limit = 5
	lim := StreamProgram(prog, q, db, Opts{Shards: 3}, limit)
	defer lim.Close()
	rows := 0
	for lim.Next() {
		rows++
	}
	if err := lim.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != limit {
		t.Fatalf("limit %d stream yielded %d rows", limit, rows)
	}
}

// TestChooseShards pins the shard policy: the count is exactly what
// Opts.Shards asks for, whatever the input size or worker count, and both 0
// and 1 mean unsharded.
func TestChooseShards(t *testing.T) {
	prog, _ := parseProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	small := storage.NewDatabase()
	if err := storage.GenRandomGraph(small, "e", 20, 40, 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Opts
		want int
	}{
		{"explicit wins over tiny input", Opts{Shards: 7}, 7},
		{"explicit 1 disables", Opts{Shards: 1, Workers: 8}, 0},
		{"zero is unsharded", Opts{Workers: 8}, 0},
	}
	for _, c := range cases {
		_, st, err := ParallelSemiNaiveOpts(prog, small, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.Shards != c.want {
			t.Errorf("%s: Stats.Shards = %d, want %d", c.name, st.Shards, c.want)
		}
	}
}

// allFreeQuery builds ?- p(Q0, ..., Qn). for the system's head predicate.
func allFreeQuery(sys interface {
	Arity() int
	Pred() string
}) ast.Query {
	args := make([]string, sys.Arity())
	for i := range args {
		args[i] = fmt.Sprintf("Q%d", i)
	}
	q, err := parser.ParseQuery(fmt.Sprintf("?- %s(%s).", sys.Pred(), join(args)))
	if err != nil {
		panic(err)
	}
	return q
}

// boundQueryTest binds the first argument to some constant present in the
// database so the bound-query path has work to do.
func boundQueryTest(sys interface {
	Arity() int
	Pred() string
}, db *storage.Database) ast.Query {
	c := "n0"
	for _, pred := range db.Preds() {
		r := db.Rel(pred)
		if r != nil && r.Len() > 0 && r.Arity() > 0 {
			c = db.Syms.Name(r.At(0)[0])
			break
		}
	}
	args := make([]string, sys.Arity())
	args[0] = c
	for i := 1; i < len(args); i++ {
		args[i] = fmt.Sprintf("Q%d", i)
	}
	q, err := parser.ParseQuery(fmt.Sprintf("?- %s(%s).", sys.Pred(), join(args)))
	if err != nil {
		panic(err)
	}
	return q
}

func join(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += ", "
		}
		s += p
	}
	return s
}
