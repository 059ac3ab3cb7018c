package main

import (
	"fmt"
	"runtime"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// twin mirrors one fixture server's state as the plain values the server is
// built from — a storage.Database, an eval.Planner, an eval.ResultCache —
// given the same program, the same facts and the same sequence of
// operations, hence the same epochs. The traced run replays every operation
// on it one public function at a time with a span around each call, which is
// where the per-layer timings come from; the server itself is only ever
// timed from outside.
type twin struct {
	class   string
	sys     *ast.RecursiveSystem
	key     string // eval.SystemKey(sys): the result cache's program key
	db      *storage.Database
	snap    *storage.Snapshot
	planner *eval.Planner
	cache   *eval.ResultCache
	reg     *obs.Registry
}

// systemOf assembles the single linear recursive system of a parsed program:
// its one recursive rule plus the other rules as exits.
func systemOf(prog *ast.Program) (*ast.RecursiveSystem, error) {
	var rec *ast.Rule
	var exits []ast.Rule
	for i, r := range prog.Rules {
		if len(r.RecursiveAtoms()) == 0 {
			exits = append(exits, r)
			continue
		}
		if rec != nil {
			return nil, fmt.Errorf("more than one recursive rule")
		}
		rec = &prog.Rules[i]
	}
	if rec == nil {
		return nil, fmt.Errorf("no recursive rule")
	}
	return ast.NewRecursiveSystem(*rec, exits...)
}

// layerCounts accumulates the traced run's counts: what the layers did, read
// off eval.Stats and the library servers' QueryResults at the same
// boundaries the spans are taken at.
type layerCounts struct {
	fix [4]struct { // Plan.AnswerOpts on the twin, per class
		n                                int
		visited, derived, rounds, allocs float64
	}
	stream [4]struct { // Plan.Stream on the twin, per class
		n       int
		derived float64
	}
	streamDerived, matDerived float64 // the same queries streamed and materialised
	queries, sharded          int     // uncached Server.Query / Server.StreamQuery results
	encodeBytes, encodeN      float64
}

// opts is what a default server.Config{} hands the engines, with the twin's
// own registry.
func (t *twin) opts() eval.Opts { return eval.Opts{Metrics: t.reg} }

// newTwin builds the twin with a span around each set-up step.
func newTwin(fx *fixture, rec *recorder, parent int) (*twin, error) {
	t := &twin{class: fx.class, reg: obs.NewRegistry()}
	t.planner = eval.NewPlannerWith(t.reg)
	t.cache = eval.NewResultCacheWith(t.reg, 0)

	id := rec.begin("parser.parse_program", parent, -1, fx.class)
	prog, _, err := parser.ParseProgram(fx.program)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if t.sys, err = systemOf(prog); err != nil {
		return nil, err
	}
	t.key = eval.SystemKey(t.sys)

	id = rec.begin("storage.scan_facts", parent, -1, fx.class)
	facts, err := storage.ScanFacts(fx.facts)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	t.db = storage.NewDatabase()
	t.db.Snapshot() // the server publishes its empty start-up state as epoch 1
	id = rec.begin("storage.insert", parent, -1, fx.class)
	for _, f := range facts {
		if _, err := t.db.Insert(f.Pred, f.Args...); err != nil {
			return nil, err
		}
	}
	rec.end(id)
	id = rec.begin("storage.index_build", parent, -1, fx.class)
	t.db.BuildIndexes()
	rec.end(id)
	id = rec.begin("storage.snapshot", parent, -1, fx.class)
	t.snap = t.db.Snapshot()
	rec.end(id)

	// The bound-first plan every cold query uses, cost search included.
	bound := make([]bool, t.sys.Arity())
	bound[0] = true
	id = rec.begin("eval.plan.compile", parent, -1, fx.class)
	_, err = eval.CompilePlanDB(t.sys, t.snap.DB(), bound, t.opts())
	rec.end(id)
	return t, err
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// query replays one query on the twin: parse, cache lookup and, on a miss,
// plan lookup and the fixpoint on the indexed snapshot, then the cache fill
// that keeps the twin's cache in step with the server's.
func (t *twin) query(ci int, qs string, rec *recorder, parent, opID int, lc *layerCounts) error {
	id := rec.begin("parser.parse_query", parent, opID, t.class)
	q, err := parser.ParseQuery(qs)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("eval.resultcache.lookup", parent, opID, t.class)
	_, _, hit := t.cache.Lookup(t.key, q.String(), t.snap.Epoch())
	rec.end(id)
	if hit {
		return nil
	}
	if _, err := t.answer(ci, q, rec, parent, opID, lc); err != nil {
		return err
	}
	id = rec.begin("eval.resultcache.fill", parent, opID, t.class)
	_, _, _, err = t.cache.Answer(t.planner, t.sys, q, t.snap, t.opts())
	rec.end(id)
	return err
}

// answer runs the plan lookup and Plan.AnswerOpts under spans and counts the
// evaluation's work.
func (t *twin) answer(ci int, q ast.Query, rec *recorder, parent, opID int, lc *layerCounts) (eval.Stats, error) {
	id := rec.begin("eval.plan.lookup", parent, opID, t.class)
	plan, _, err := t.planner.PlanForEpoch(t.sys, q, t.snap.Epoch(), t.snap.DB(), t.opts())
	rec.end(id)
	if err != nil {
		return eval.Stats{}, err
	}
	m0 := mallocs()
	id = rec.begin("eval.fixpoint.answer", parent, opID, t.class)
	_, st, err := plan.AnswerOpts(q, t.snap.DB(), t.opts())
	rec.end(id)
	if err != nil {
		return st, err
	}
	f := &lc.fix[ci]
	f.n++
	f.visited += float64(st.Visited)
	f.derived += float64(st.Derived)
	f.rounds += float64(st.Rounds)
	f.allocs += float64(mallocs() - m0)
	return st, nil
}

// streamQuery replays one limited streamed query: Plan.Stream to the first
// Next, then the rest of the limit; and the same query materialised, for the
// share of the derivation work early termination skipped.
func (t *twin) streamQuery(ci int, qs string, rec *recorder, parent, opID int, lc *layerCounts) error {
	id := rec.begin("parser.parse_query", parent, opID, t.class)
	q, err := parser.ParseQuery(qs)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("eval.plan.lookup", parent, opID, t.class)
	plan, _, err := t.planner.PlanForEpoch(t.sys, q, t.snap.Epoch(), t.snap.DB(), t.opts())
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("eval.stream.drain", parent, opID, t.class)
	first := rec.begin("eval.stream.first_row", id, opID, t.class)
	it := plan.Stream(q, t.snap.DB(), t.opts(), streamLimit)
	more := it.Next()
	rec.end(first)
	for more {
		more = it.Next()
	}
	it.Close()
	rec.end(id)
	if err := it.Err(); err != nil {
		return err
	}
	st := it.Stats()
	lc.stream[ci].n++
	lc.stream[ci].derived += float64(st.Derived)
	mat, err := t.answer(ci, q, rec, parent, opID, lc)
	if err != nil {
		return err
	}
	lc.streamDerived += float64(st.Derived)
	lc.matDerived += float64(mat.Derived)
	return nil
}

// write replays one POST /facts: scan, insert, snapshot, diff, maintenance.
func (t *twin) write(src string, rec *recorder, parent, opID int) error {
	id := rec.begin("storage.scan_facts", parent, opID, t.class)
	facts, err := storage.ScanFacts(src)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("storage.insert", parent, opID, t.class)
	for _, f := range facts {
		if _, err := t.db.Insert(f.Pred, f.Args...); err != nil {
			return err
		}
	}
	rec.end(id)
	old := t.snap
	id = rec.begin("storage.snapshot", parent, opID, t.class)
	t.snap = t.db.Snapshot()
	rec.end(id)
	id = rec.begin("storage.diff", parent, opID, t.class)
	storage.DiffSnapshots(old, t.snap)
	rec.end(id)
	id = rec.begin("eval.maintain.maintain", parent, opID, t.class)
	t.cache.Maintain(old, t.snap, eval.MaintSpec{Planner: t.planner, Sys: t.sys, Opts: t.opts()})
	rec.end(id)
	return nil
}

// sizeBytes sums the footprint of the snapshot's relations.
func sizeBytes(snap *storage.Snapshot) int64 {
	var n int64
	for _, pred := range snap.Preds() {
		n += snap.Rel(pred).SizeBytes()
	}
	return n
}
