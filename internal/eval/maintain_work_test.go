package eval

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// What a write costs, asserted on counts (never wall-clock): a long run of
// one-fact writes stays right while every carried relation folds its index
// overflow again and again; a bounded delta visits the diff, not the
// relation; index rebuilds amortise; an entry the diff cannot reach is
// published as the very same objects; and the byte budget sees the
// maintenance state.

// oneFact is write i of a workload's long run: one fact, chosen so most
// writes grow some cached answer and the rest miss every entry.
var oneFact = map[string]func(i int) []string{
	"tc-right-linear":  tcFact,
	"tc-left-linear":   tcFact,
	"bounded-union":    boundedFact,
	"stable-parallel":  func(i int) []string { return fix3Fact(i, "sa", "sb", "sc") },
	"generic-parallel": func(i int) []string { return fix3Fact(i, "a", "b", "") },
}

// tcFact extends a chain hanging off n0 (every fourth write), hangs exit
// tuples off the chain and off n0 itself, and now and then writes into a
// component no query reaches.
func tcFact(i int) []string {
	k := i / 4
	switch i % 4 {
	case 0:
		return []string{"a", fmt.Sprintf("c%d", k), fmt.Sprintf("c%d", k+1)}
	case 1:
		return []string{"e", fmt.Sprintf("c%d", k), fmt.Sprintf("t%d", i)}
	case 2:
		return []string{"e", "n0", fmt.Sprintf("s%d", i)}
	default:
		return []string{"a", fmt.Sprintf("far%d", i), fmt.Sprintf("far%d", i+1)}
	}
}

func boundedFact(i int) []string {
	switch i % 5 {
	case 0:
		return []string{"c", fmt.Sprintf("n%d", i%24), fmt.Sprintf("u%d", i%7)}
	case 1:
		return []string{"e", "n0", fmt.Sprintf("d%d", i)}
	case 2:
		return []string{"e", fmt.Sprintf("far%d", i), fmt.Sprintf("far%d", i+1)}
	default:
		return []string{"b", fmt.Sprintf("y%d", i)}
	}
}

// fix3Fact feeds the arity-3 fixpoint workloads: mostly new exit tuples under
// the bound constant of the cached query, some links, some unreachable.
func fix3Fact(i int, p1, p2, p3 string) []string {
	c := func(k int) string { return fmt.Sprintf("s%d", k%6) }
	if p3 == "" {
		c = func(k int) string { return fmt.Sprintf("n%d", k%5) }
	}
	switch i % 6 {
	case 0:
		return []string{p1, c(i), c(i / 6)}
	case 1:
		return []string{p2, c(i / 6), c(i)}
	case 2:
		if p3 != "" {
			return []string{p3, c(i), c(i / 6)}
		}
		return []string{"e3", fmt.Sprintf("far%d", i), "x", "y"}
	default:
		return []string{"e3", c(0), fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i)}
	}
}

// workSeed is the initial EDB of a workload in these tests: small, with the
// queries' constants interned and something reachable from them.
func workSeed(w maintWorkload) [][]string {
	switch w.kind {
	case PlanTC:
		return [][]string{{"e", "n0", "n3"}, {"a", "n3", "n0"}, {"a", "n0", "c0"}, {"a", "n0", "n1"}, {"e", "n1", "n2"}, {"e", "c0", "t1"}}
	case PlanBounded:
		return [][]string{{"b", "u0"}, {"c", "n0", "u0"}, {"e", "n3", "u0"}, {"e", "n0", "n3"}}
	case PlanStable:
		return [][]string{{"sa", "s0", "s1"}, {"sb", "s1", "s2"}, {"sc", "s2", "s0"}, {"e3", "s0", "s1", "s2"}, {"e3", "s2", "s1", "s0"}}
	default:
		return [][]string{{"a", "n0", "n1"}, {"b", "n1", "n2"}, {"e3", "n0", "n1", "n2"}, {"e3", "n1", "n2", "n0"}}
	}
}

// entryAt digs the cached entry of q at the snapshot's epoch out of the cache.
func entryAt(t *testing.T, rc *ResultCache, src Source, q ast.Query, snap *storage.Snapshot) *resultEntry {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[resultKey{program: programKey(src), query: q.String(), epoch: snap.Epoch()}]
	if !ok {
		t.Fatalf("no cached entry for %v at epoch %d", q, snap.Epoch())
	}
	return el.Value.(*resultEntry)
}

func parseQueries(t *testing.T, qs ...string) []ast.Query {
	t.Helper()
	out := make([]ast.Query, len(qs))
	for i, s := range qs {
		q, err := parser.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// TestMaintainLongWriteSequence: 480 consecutive one-fact writes per plan
// class — several times the colIndex.stale bound of these small relations
// (64 + half the indexed prefix), so every carried relation that grows past
// 200 rows goes overflow → rebuild at least twice — with
// readers answering through the cache on whatever snapshot is current (run
// under -race by `make race`). After every 50th write and at the end the
// maintained entry ≡ a from-scratch run of the plan ≡ NaiveOpts.
func TestMaintainLongWriteSequence(t *testing.T) {
	const writes = 480
	for _, w := range maintWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			db := storage.NewDatabase()
			if err := insertAll(db, workSeed(w)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if err := insertAll(db, [][]string{oneFact[w.name](i)}); err != nil {
					t.Fatal(err)
				}
			}
			pl, rc := NewPlanner(), NewResultCache(0)
			queries := parseQueries(t, w.queries...)
			var cur atomic.Pointer[storage.Snapshot]
			snap := db.Snapshot()
			cur.Store(snap)
			builds0 := make([]int64, len(queries))
			for i, q := range queries {
				rel, _, _, err := rc.Answer(pl, w.sys, q, snap, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				builds0[i] = rel.Stats().IndexBuilds
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					seen := make([]int, len(queries))
					for {
						select {
						case <-stop:
							return
						default:
						}
						s := cur.Load()
						for i, q := range queries {
							got, _, _, err := rc.Answer(pl, w.sys, q, s, Opts{})
							if err != nil {
								t.Error(err)
								return
							}
							// Insert-only writes: answers only ever grow.
							if got.Len() < seen[i] {
								t.Errorf("reader %d: %v shrank %d -> %d at epoch %d", r, q, seen[i], got.Len(), s.Epoch())
								return
							}
							seen[i] = got.Len()
						}
					}
				}(r)
			}
			check := func(i int) {
				for _, q := range queries {
					got, st, cached, err := rc.Answer(pl, w.sys, q, snap, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if !cached || !st.Maintained {
						t.Fatalf("write %d %v: cached=%v maintained=%v, want true/true", i, q, cached, st.Maintained)
					}
					p, err := CompilePlanOpts(w.sys, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					fresh, _, err := p.AnswerOpts(q, snap.DB(), Opts{})
					if err != nil {
						t.Fatal(err)
					}
					want := oracleRows(t, w.sys, q, snap.DB())
					if rows := relRows(got); !rowsEqual(rows, relRows(fresh)) || !rowsEqual(rows, want) {
						t.Fatalf("write %d %v: maintained %d rows, recomputed %d, naive %d", i, q, got.Len(), fresh.Len(), len(want))
					}
				}
			}
			for i := 6; i < 6+writes; i++ {
				old := snap
				if err := insertAll(db, [][]string{oneFact[w.name](i)}); err != nil {
					t.Fatal(err)
				}
				snap = db.Snapshot()
				res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: w.sys, Opts: Opts{}})
				if res.Maintained != len(queries) || res.Recomputed != 0 || res.Skipped != 0 {
					t.Fatalf("write %d: Maintain = %+v, want %d maintained", i, res, len(queries))
				}
				cur.Store(snap)
				if (i+1)%50 == 0 {
					check(i)
				}
			}
			close(stop)
			wg.Wait()
			check(6 + writes)
			grown := 0
			for i, q := range queries {
				e := entryAt(t, rc, w.sys, q, snap)
				if e.rel.Len() <= 200 {
					continue
				}
				grown++
				if builds := e.rel.Stats().IndexBuilds - builds0[i]; builds < 2*int64(e.rel.Arity()) {
					t.Errorf("%v: %d tuples after %d writes but only %d index rebuilds — the overflow never folded twice", q, e.rel.Len(), writes, builds)
				}
			}
			if grown == 0 {
				t.Error("no entry grew past 200 rows: the run never crossed the stale bound twice")
			}
		})
	}
}

// s10Fixture is a bounded (paper s10) database shaped like bench/fixtures.go's:
// sources with c-edges into mids that e supports, direct e-answers per source,
// and a b relation whose every value is a row of every supported source.
func s10Fixture(t *testing.T) (*ast.RecursiveSystem, *storage.Database) {
	t.Helper()
	sys := mustSystem(t, "p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).", "p(X, Y) :- e(X, Y).")
	db := storage.NewDatabase()
	var facts [][]string
	for i := 0; i < 100; i++ {
		facts = append(facts, []string{"b", fmt.Sprintf("y%d", i)})
	}
	for m := 0; m < 16; m++ {
		for k := 0; k < 3; k++ {
			facts = append(facts, []string{"e", fmt.Sprintf("u%d", (m*3+k)%40), fmt.Sprintf("m%d", m)})
		}
	}
	for s := 0; s < 40; s++ {
		for k := 0; k < 3; k++ {
			facts = append(facts, []string{"c", fmt.Sprintf("x%d", s), fmt.Sprintf("m%d", (s*5+k*7)%16)})
		}
		for k := 0; k < 12; k++ {
			facts = append(facts, []string{"e", fmt.Sprintf("x%d", s), fmt.Sprintf("d%d_%d", s, k)})
		}
	}
	if err := insertAll(db, facts); err != nil {
		t.Fatal(err)
	}
	return sys, db
}

// TestMaintainBoundedVisitsDiffOnly: carrying a bounded entry across one new
// b-fact seeds the expansion rules from that tuple with the query constant
// pushed in, so it visits at least 10x fewer tuples than the cold query that
// enumerates all of b — and still lands on the naive answer.
func TestMaintainBoundedVisitsDiffOnly(t *testing.T) {
	sys, db := s10Fixture(t)
	q := parseQueries(t, "?- p(x7, Y).")[0]
	pl := NewPlanner()
	old := db.Snapshot()
	p, _, err := pl.planFor(sys, q, old.DB(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanBounded {
		t.Fatalf("plan kind %v, want bounded", p.Kind)
	}
	rel, cold, err := p.AnswerOpts(q, old.DB(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rel.Freeze()
	if _, err := db.Insert("b", "fresh"); err != nil {
		t.Fatal(err)
	}
	cur := db.Snapshot()
	diff, ok := storage.DiffSnapshots(old, cur)
	if !ok {
		t.Fatal("snapshots not diffable")
	}
	got, visited, ok := maintainBounded(p, q, rel, cur.DB(), diff)
	if !ok {
		t.Fatal("maintainBounded declined a positive one-fact diff")
	}
	if got.Len() != rel.Len()+1 {
		t.Errorf("maintained %d rows from %d, want one more", got.Len(), rel.Len())
	}
	if want := oracleRows(t, sys, q, cur.DB()); !rowsEqual(relRows(got), want) {
		t.Errorf("maintained %d rows, naive %d", got.Len(), len(want))
	}
	if visited == 0 || visited*10 > cold.Visited {
		t.Errorf("delta visited %d tuples, cold query %d: want at least 10x fewer", visited, cold.Visited)
	}
}

// TestMaintainIndexBuildsAmortised: N one-fact writes that each add a row to
// a carried entry rebuild its column indexes a handful of times (Insert folds
// the overflow when it passes colIndex.stale), not twice per write as
// compact-before-publish did.
func TestMaintainIndexBuildsAmortised(t *testing.T) {
	const n = 256
	sys, db := s10Fixture(t)
	q := parseQueries(t, "?- p(x7, Y).")[0]
	pl, rc := NewPlanner(), NewResultCache(0)
	snap := db.Snapshot()
	rel, _, _, err := rc.Answer(pl, sys, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	len0, builds0 := rel.Len(), rel.Stats().IndexBuilds
	for i := 0; i < n; i++ {
		old := snap
		if _, err := db.Insert("b", fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
		snap = db.Snapshot()
		if res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Opts: Opts{}}); res.Maintained != 1 || res.Carried != 0 {
			t.Fatalf("write %d: Maintain = %+v, want 1 maintained, grown", i, res)
		}
	}
	e := entryAt(t, rc, sys, q, snap)
	if e.rel.Len() != len0+n {
		t.Fatalf("entry has %d rows after %d writes, want %d", e.rel.Len(), n, len0+n)
	}
	if builds := e.rel.Stats().IndexBuilds - builds0; builds > n/8 {
		t.Errorf("%d index rebuilds over %d one-fact writes, want at most %d", builds, n, n/8)
	}
}

// TestMaintainUntouchedHeadNotCloned: in a program with two heads, writes that
// grow only one of them leave the other's relation in the program's view the
// very object the cold run published — the delta pass clones a head at its first fresh
// tuple, so a head whose rules fire without deriving anything new costs no
// clone and no index rebuild, write after write.
func TestMaintainUntouchedHeadNotCloned(t *testing.T) {
	prog, _, err := parser.ParseProgram(
		"t(X, Y) :- e(X, Y).\n" +
			"t(X, Y) :- t(X, Z), e(Z, Y).\n" +
			"loop(X) :- t(X, X).\n")
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := insertAll(db, [][]string{{"e", "l0", "l1"}, {"e", "l1", "l0"}, {"e", "c0", "c1"}}); err != nil {
		t.Fatal(err)
	}
	pl, rc := NewPlanner(), NewResultCache(0)
	queries := parseQueries(t, "?- t(c0, Y).", "?- loop(X).")
	snap := db.Snapshot()
	for _, q := range queries {
		if _, _, _, err := rc.Answer(pl, prog, q, snap, Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	var loop, grown *storage.Relation
	var builds0 int64
	for i := 1; i <= 64; i++ {
		old := snap
		// Extend the chain: t grows, loop's rule is seeded and derives nothing.
		if _, err := db.Insert("e", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)); err != nil {
			t.Fatal(err)
		}
		snap = db.Snapshot()
		if res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: prog, Opts: Opts{}}); res.Maintained != len(queries) || res.Carried != 1 {
			t.Fatalf("write %d: Maintain = %+v, want %d maintained, loop carried", i, res, len(queries))
		}
		aux := viewAt(t, rc, snap)
		if i == 1 {
			loop, builds0 = aux.idb["loop"], aux.idb["loop"].Stats().IndexBuilds
		}
		if aux.idb["loop"] != loop {
			t.Fatalf("write %d: the untouched head was cloned", i)
		}
		if aux.idb["t"] == grown {
			t.Fatalf("write %d: the grown head was not extended", i)
		}
		grown = aux.idb["t"]
	}
	if builds := loop.Stats().IndexBuilds - builds0; builds != 0 {
		t.Errorf("%d index rebuilds of the untouched head over 64 writes, want none", builds)
	}
	if got, want := relRows(entryAt(t, rc, prog, queries[0], snap).rel), oracleRows(t, prog, queries[0], snap.DB()); !rowsEqual(got, want) {
		t.Errorf("maintained %d rows, naive %d", len(got), len(want))
	}
}

// TestMaintainUnaffectedEntryZeroCopy: an entry the diff cannot reach is
// published under the new epoch as the same relation and the same maintenance
// state — nothing cloned, nothing rebuilt — for every plan kind.
func TestMaintainUnaffectedEntryZeroCopy(t *testing.T) {
	for _, w := range maintWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			db := storage.NewDatabase()
			if err := insertAll(db, workSeed(w)); err != nil {
				t.Fatal(err)
			}
			pl, rc := NewPlanner(), NewResultCache(0)
			// The bound query of each workload; the all-free ones see every write.
			q := parseQueries(t, w.queries[len(w.queries)-1])[0]
			if w.kind == PlanTC {
				q = parseQueries(t, "?- p(n0, Y).")[0]
			}
			snap := db.Snapshot()
			if _, _, _, err := rc.Answer(pl, w.sys, q, snap, Opts{}); err != nil {
				t.Fatal(err)
			}
			before := entryAt(t, rc, w.sys, q, snap)
			fixpoint := w.kind == PlanStable || w.kind == PlanGeneric
			var view *fixAux
			if fixpoint {
				view = viewAt(t, rc, snap)
			}
			// Writes no derivation of the entry can use: a predicate the
			// program never reads, then facts in a component (or under a
			// constant) the query does not touch.
			for i, facts := range [][][]string{
				{{"unrelated", "x", "y"}},
				{{"a", "far1", "far2"}, {"e", "far2", "far3"}, {"e3", "far1", "far2", "far3"}},
			} {
				old := snap
				if err := insertAll(db, facts); err != nil {
					t.Fatal(err)
				}
				snap = db.Snapshot()
				res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: w.sys, Opts: Opts{}})
				if want := (MaintResult{Maintained: 1, Carried: 1}); res != want {
					t.Fatalf("write %d: Maintain = %+v, want %+v", i, res, want)
				}
				after := entryAt(t, rc, w.sys, q, snap)
				if after.rel != before.rel {
					t.Errorf("write %d: the carried entry holds a different relation", i)
				}
				// The first write reaches no rule at all: the maintenance state
				// is the same object too — the entry's own, or for a fixpoint
				// plan every relation of the program's view. (The second may
				// grow the view without matching the entry.)
				same := after.aux == before.aux
				if fixpoint {
					next := viewAt(t, rc, snap)
					same = sameRels(next.idb, view.idb)
					view = next
				}
				if !same && (i == 0 || !fixpoint) {
					t.Errorf("write %d: the carried entry holds a different maintenance state", i)
				}
				if want := oracleRows(t, w.sys, q, snap.DB()); !rowsEqual(relRows(after.rel), want) {
					t.Errorf("write %d: carried %d rows, naive %d", i, after.rel.Len(), len(want))
				}
				before = after
			}
		})
	}
}

// TestResultCacheChargesMaintenanceState: the byte budget sees what an entry
// keeps beside its answers — a TC entry's visited set, a program's view
// exactly once — and lets go of it with the entry. Any number of distinct
// cold queries of a fixpoint program at one epoch run the round driver once,
// between them, and a write advances the view once; every answer, including
// one read through a reader still pinned to the old snapshot, stays the
// naive one.
func TestResultCacheChargesMaintenanceState(t *testing.T) {
	reg := obs.NewRegistry()
	rc, pl := NewResultCacheWith(reg, 0), NewPlanner()
	tc := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 64)
	snap := db.Snapshot()
	q := parseQueries(t, "?- p(n0, Y).")[0]
	rel, _, _, err := rc.Answer(pl, tc, q, snap, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	e := entryAt(t, rc, tc, q, snap)
	visited := e.aux.(*storage.ValueSet)
	if want := rel.SizeBytes() + visited.SizeBytes(); e.size < want || rc.Bytes() != e.size {
		t.Errorf("TC entry charged %d (cache %d), want at least answers+visited = %d", e.size, rc.Bytes(), want)
	}

	// Six cached queries of each fixpoint program: one view per program,
	// charged once, before and after writes.
	for _, w := range maintWorkloads(t)[3:] {
		t.Run(w.name, func(t *testing.T) {
			evals := obs.NewRegistry()
			opts := Opts{Metrics: evals}
			driverRuns := func() int64 { return evals.Counter(mEvaluations).Value() }
			rc := NewResultCacheWith(reg, 0)
			db := storage.NewDatabase()
			if err := insertAll(db, workSeed(w)); err != nil {
				t.Fatal(err)
			}
			c := "s"
			if w.kind == PlanGeneric {
				c = "n"
			}
			var qs []string
			for i := 0; i < 5; i++ {
				qs = append(qs, fmt.Sprintf("?- p(%s%d, Y, Z).", c, i))
			}
			queries := parseQueries(t, append(qs, "?- p(X, Y, Z).")...)
			snap := db.Snapshot()
			check := func(at *storage.Snapshot, cached bool) {
				t.Helper()
				for _, q := range queries {
					got, _, hit, err := rc.Answer(pl, w.sys, q, at, opts)
					if err != nil {
						t.Fatal(err)
					}
					if hit != cached {
						t.Errorf("%v at epoch %d: cached=%v, want %v", q, at.Epoch(), hit, cached)
					}
					if want := oracleRows(t, w.sys, q, at.DB()); !rowsEqual(relRows(got), want) {
						t.Errorf("%v at epoch %d: %d rows, naive %d", q, at.Epoch(), got.Len(), len(want))
					}
				}
			}
			check(snap, false)
			if n := driverRuns(); n != 1 {
				t.Errorf("%d cold queries ran the round driver %d times, want once", len(queries), n)
			}
			charges := func(at *storage.Snapshot) {
				t.Helper()
				v := viewAt(t, rc, at)
				var want int64
				rc.mu.Lock()
				for el := rc.lru.Front(); el != nil; el = el.Next() {
					e := el.Value.(*resultEntry)
					if e.hasQuery && e.aux != nil {
						t.Errorf("%s holds maintenance state of its own", e.key.query)
					}
					want += e.size
				}
				rc.mu.Unlock()
				if got := rc.Bytes(); got != want || want < v.sizeBytes() {
					t.Errorf("cache charges %d bytes, entries sum to %d, view alone %d", got, want, v.sizeBytes())
				}
			}
			charges(snap)

			old := snap
			if err := insertAll(db, [][]string{oneFact[w.name](0), oneFact[w.name](1)}); err != nil {
				t.Fatal(err)
			}
			snap = db.Snapshot()
			res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: w.sys, Opts: opts})
			if res.Maintained != len(queries) || driverRuns() != 1 {
				t.Fatalf("Maintain = %+v with %d driver runs, want %d maintained by the delta pass", res, driverRuns()-1, len(queries))
			}
			if v := viewAt(t, rc, snap); v.from == nil || v.base != old.Epoch() {
				t.Errorf("the view at the new epoch was not advanced from the old one (base %d)", v.base)
			}
			charges(snap)
			check(snap, true)
			// The old epoch's view went with its entries: a reader pinned there
			// computes it again, once, and answers as of its snapshot.
			check(old, false)
			if n := driverRuns(); n != 2 {
				t.Errorf("the pinned reader ran the round driver %d times, want once", n-1)
			}
		})
	}
}

// viewAt digs the one view cached at the snapshot's epoch out of the cache.
func viewAt(t *testing.T, rc *ResultCache, snap *storage.Snapshot) *fixAux {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var v *fixAux
	for k, el := range rc.entries {
		if a, ok := el.Value.(*resultEntry).aux.(*fixAux); ok && k.epoch == snap.Epoch() {
			if v != nil {
				t.Fatalf("two views at epoch %d", snap.Epoch())
			}
			v = a
		}
	}
	if v == nil {
		t.Fatalf("no view at epoch %d", snap.Epoch())
	}
	return v
}

// sameRels reports whether two views hold the very same relations.
func sameRels(a, b map[string]*storage.Relation) bool {
	if len(a) != len(b) {
		return false
	}
	for pred, r := range a {
		if b[pred] != r {
			return false
		}
	}
	return true
}

// TestFreezeNoWriteUnderReaders (run under -race by `make race`): a reader on
// a pinned snapshot may inspect a relation's header while the writer takes
// the next snapshot over the same, unchanged relation and Maintain publishes
// a carried entry whose relation readers already hold — neither freezes again
// with a write.
func TestFreezeNoWriteUnderReaders(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	db := chainDB(t, 16)
	pl, rc := NewPlanner(), NewResultCache(0)
	q := parseQueries(t, "?- p(n0, Y).")[0]
	pinned := db.Snapshot()
	held, _, _, err := rc.Answer(pl, sys, q, pinned, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The exit relation the kernel aliases, and the cached answer.
				if !pinned.Rel("e").Frozen() || !held.Frozen() {
					t.Error("a published relation is not frozen")
					return
				}
				if _, _, err := pl.AnswerOpts(sys, q, pinned.DB(), Opts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	snap := pinned
	for i := 0; i < 50; i++ {
		old := snap
		if _, err := db.Insert("unrelated", fmt.Sprintf("x%d", i)); err != nil {
			t.Fatal(err)
		}
		snap = db.Snapshot() // re-freezes "a" and "e", which pinned still holds
		if res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, Opts: Opts{}}); res.Carried != 1 {
			t.Fatalf("write %d: Maintain = %+v, want the entry carried", i, res)
		}
	}
	close(stop)
	wg.Wait()
	if got := entryAt(t, rc, sys, q, snap).rel; got != held {
		t.Error("the carried entry no longer holds the relation the readers held")
	}
}
