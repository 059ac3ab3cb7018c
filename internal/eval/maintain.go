package eval

import (
	"time"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Incremental maintenance of cached materialized answers. A write batch
// advances the snapshot epoch; Maintain carries the previous epoch's entries
// forward: it reads the insert-only diff between the two snapshots
// (storage.DiffSnapshots — cheap, the arena is append-only) and re-runs only
// the delta on the same loops that computed the entry, seeded differently
// and under a budget sink. An entry the diff provably cannot reach is
// re-keyed to the new epoch as it is — same relation, nothing copied — and
// the others pay for the inserted tuples, not for their own size:
//
//   - TC frontier plans (maintainTC; bound queries only) restart the
//     kernel's bfs from the new edges' endpoints against the frozen visited
//     set.
//   - Bounded plans (maintainBounded) seed every positive occurrence of a
//     changed predicate in the expansion rules with the inserted tuples.
//   - Stable/generic parallel plans advance the program's view — the one
//     cached fixpoint of the program at an epoch (resultcache.go) — once per
//     write: incrementalFixpoint runs the round driver with a diffSeed over
//     the old epoch's view, else the plan recomputes it; each entry then
//     takes the tuples the pass derived which match its constants, or is
//     re-selected from a recomputed view (maintainer.fromView).
//
// Nothing is compacted on the way: a carried relation keeps its index
// overflow until Insert folds it (colIndex.stale, storage/csr.go).
//
// Insert-only monotone semantics make this sound: for a positive program,
// restarting semi-naive iteration from any pre-fixpoint (here: the old
// least fixpoint plus the delta) converges to the new least fixpoint. The
// pass falls back to a full recompute through Plan.run whenever that
// argument does not hold (negation over a changed predicate, a replaced or
// shrunk relation, a tuple stored under the planned predicate itself, the
// delta closure exceeding the budget). Differential tests assert maintained
// ≡ recomputed across randomized insert batches for all four plan classes.

// MaintSpec tells ResultCache.Maintain which cached program it may
// maintain and how to recompute the entries it cannot.
type MaintSpec struct {
	// Planner compiles (or looks up) the plan for entries of Sys.
	Planner *Planner
	// Sys is the program the serving layer answers, as it was handed to
	// ResultCache.Answer.
	Sys Source
	// Opts carries metrics and tracing into the delta passes and fallback
	// recomputes.
	Opts Opts
	// budget, a test seam, caps the derivation attempts a delta pass may
	// make before falling back to a full recompute; 0 means an adaptive
	// default proportional to the entry size plus the diff size.
	budget int
}

// MaintResult reports what happened to the maintainable entries.
type MaintResult struct {
	// Maintained entries were carried forward by a delta pass.
	Maintained int
	// Carried counts the maintained entries the diff could not reach: they
	// were re-keyed to the new epoch with their answer relation as it was.
	Carried int
	// Recomputed entries were rebuilt from scratch (fallback).
	Recomputed int
	// Skipped entries were left behind at the old epoch (foreign program,
	// failed recompute); they age out of the LRU.
	Skipped int
}

// fixAux is a view's state: the materialized IDB relations of a fixpoint
// program at the view's epoch, which every fixpoint-plan entry of the program
// at that epoch is selected from. Immutable once published.
type fixAux struct {
	idb map[string]*storage.Relation
	// from, when the delta pass advanced the view from the one at epoch base,
	// is each head's length in that view: the tuples past it are the ones the
	// pass derived. nil for a view computed from scratch.
	from map[string]int
	base uint64
}

// rel is the relation a query of pred selects from: the derived one, or the
// database's when the program derives none.
func (a *fixAux) rel(pred string, db *storage.Database) *storage.Relation {
	if r := a.idb[pred]; r != nil {
		return r
	}
	return db.Rel(pred)
}

// sizeBytes sums the footprint of the materialized relations.
func (a *fixAux) sizeBytes() int64 {
	var n int64
	for _, r := range a.idb {
		n += r.SizeBytes()
	}
	return n
}

// newFixAux collects the head (and program-fact) relations of the program
// out of the engine's working database.
func newFixAux(prog *ast.Program, work *storage.Database) *fixAux {
	m := make(map[string]*storage.Relation)
	add := func(pred string) {
		if rel := work.Rel(pred); rel != nil {
			m[pred] = rel
		}
	}
	for _, r := range prog.Rules {
		add(r.Head.Pred)
	}
	for _, f := range prog.Facts {
		add(f.Pred)
	}
	return &fixAux{idb: m}
}

// auxBytes is the footprint of the state an entry keeps beside its answers:
// a TC entry's visited set, a view's fixpoint.
func auxBytes(aux any) int64 {
	switch a := aux.(type) {
	case *storage.ValueSet:
		return a.SizeBytes()
	case *fixAux:
		return a.sizeBytes()
	}
	return 0
}

// freezeAux freezes the relations a view holds, making the entry safe for
// concurrent readers (and for CowClone at the next write). A TC entry's
// visited set is never written once published: maintenance clones it.
func freezeAux(aux any) {
	if a, ok := aux.(*fixAux); ok {
		for _, r := range a.idb {
			r.Freeze()
		}
	}
}

// Maintain carries the cached entries of the old epoch forward to the new
// one. It runs on the writer's goroutine between taking the new snapshot
// and publishing it, so readers keep hitting the old epoch's entries until
// the maintained ones are in place. Entries belonging to programs the spec
// does not describe are skipped and age out of the LRU.
func (c *ResultCache) Maintain(old, cur *storage.Snapshot, spec MaintSpec) MaintResult {
	var res MaintResult
	if old == nil || cur == nil || old.Epoch() == cur.Epoch() {
		return res
	}
	start := time.Now()
	defer func() { c.maintDur.Observe(time.Since(start).Seconds()) }()

	diff, diffOK := storage.DiffSnapshots(old, cur)

	c.mu.Lock()
	var todo []*resultEntry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		if e.key.epoch == old.Epoch() && e.hasQuery {
			todo = append(todo, e)
		}
	}
	c.mu.Unlock()
	if len(todo) == 0 {
		return res
	}
	if spec.Sys == nil || spec.Planner == nil {
		res.Skipped = len(todo)
		return res
	}

	m := &maintainer{
		cache: c, cur: cur, spec: spec,
		diff: diff, diffOK: diffOK, diffSize: diff.Size(),
	}
	key := programKey(spec.Sys)
	for _, e := range todo {
		if e.key.program == key {
			m.entry(e, &res)
		} else {
			res.Skipped++
		}
	}
	return res
}

// maintainer is the per-Maintain working state: the new snapshot and the
// diff that leads to it.
type maintainer struct {
	cache    *ResultCache
	cur      *storage.Snapshot
	spec     MaintSpec
	diff     *storage.SnapshotDiff
	diffOK   bool
	diffSize int
}

// budget returns the derivation-attempt cap for a delta pass over an entry
// of the given size.
func (m *maintainer) budget(oldSize int) int {
	if m.spec.budget > 0 {
		return m.spec.budget
	}
	return 1<<14 + 32*(oldSize+m.diffSize)
}

// entry carries one entry across the diff: by the delta kernel of the plan
// that serves its query on the new database (Plan.over — an insert under the
// planned predicate itself retires the TC and bounded deltas for good), by
// the program's view for the fixpoint plans, or by recomputing it through
// Plan.run when the kernel declines.
func (m *maintainer) entry(e *resultEntry, res *MaintResult) {
	p, _, err := m.spec.Planner.planFor(m.spec.Sys, e.q, m.cur.DB(), m.spec.Opts)
	if err != nil {
		res.Skipped++
		return
	}
	np, _ := p.over(e.q, m.cur.DB(), false)
	switch {
	case np.viewed():
		m.fromView(np, e, res)
		return
	case m.diffOK && m.diff.Empty():
		// A write that inserted nothing new: the answers carry over as-is.
		m.publish(e, e.rel, e.aux, e.st, true, res)
		return
	case !m.diffOK:
	case np.Kind == PlanTC:
		visited, _ := e.aux.(*storage.ValueSet)
		if rel, na, ok := maintainTC(np.tc, e.q, e.rel, visited, m.cur.DB(), m.diff, m.budget(e.rel.Len())); ok {
			m.publish(e, rel, na, e.st, true, res)
			return
		}
	default: // PlanBounded
		if rel, _, ok := maintainBounded(np, e.q, e.rel, m.cur.DB(), m.diff); ok {
			m.publish(e, rel, nil, e.st, true, res)
			return
		}
	}
	// Fallback: recompute the entry from scratch at the new epoch.
	rel, aux, st, err := np.run(nil, e.q, m.cur.DB(), m.spec.Opts, sink{})
	if err != nil {
		res.Skipped++
		return
	}
	m.publish(e, rel, aux, st, false, res)
}

// fromView carries a fixpoint-plan entry (np, its plan on the new database)
// over the program's view at the new epoch, which the first entry makes: the
// old epoch's view advanced by the delta pass when it can be, recomputed
// otherwise, replacing the old one. An advanced view extends the entry by
// the tuples the pass added to its predicate (the diff's own, for a stored
// one) that carry its constants — the old relation itself when none does,
// else its copy-on-write clone. From a recomputed view the entry is selected
// whole and reports the view's Stats. Either way the entry reports np's
// PlanInfo: the plan that carried it, which Plan.over may have switched.
func (m *maintainer) fromView(np *Plan, e *resultEntry, res *MaintResult) {
	c := m.cache
	oldKey := resultKey{program: e.key.program, epoch: e.key.epoch}
	key := resultKey{program: e.key.program, epoch: m.cur.Epoch()}
	_, aux, st, hit, err := c.do(key, ast.Query{}, false, nil, func(<-chan struct{}) (*storage.Relation, any, Stats, error) {
		c.mu.Lock()
		old, ok := c.entries[oldKey]
		c.mu.Unlock()
		if ok && m.diffOK {
			oe := old.Value.(*resultEntry)
			if v := incrementalFixpoint(np.fix.Program(), oe.aux.(*fixAux), m.cur.DB(), m.diff, m.budget); v != nil {
				v.base = e.key.epoch
				return nil, v, oe.st, nil
			}
		}
		_, aux, st, err := np.run(nil, e.q, m.cur.DB(), m.spec.Opts, sink{})
		return nil, aux, st, err
	})
	if err != nil {
		res.Skipped++
		return
	}
	if !hit {
		c.mu.Lock()
		if old, ok := c.entries[oldKey]; ok {
			c.removeLocked(old)
		}
		c.mu.Unlock()
	}
	v, pred := aux.(*fixAux), e.q.Atom.Pred
	src := v.rel(pred, m.cur.DB())
	switch {
	case src != nil && src.Arity() != e.q.Atom.Arity():
		res.Skipped++
	case v.from == nil || v.base != e.key.epoch:
		rel, _ := selectAnswers(src, e.q, m.cur.Syms()) // the arities agree: checked above
		st.Plan = np.planInfo()
		m.publish(e, rel, nil, st, false, res)
	default:
		fresh := m.diff.Inserted[pred]
		if n, derived := v.from[pred]; derived {
			fresh = src.Tuples()[n:]
		}
		out := e.rel
		if len(fresh) > 0 {
			bound, vals, known := selection(e.q, m.cur.Syms())
			for _, t := range fresh {
				if known && matches(bound, vals, t) {
					if out == e.rel {
						out = e.rel.CowClone()
					}
					out.Insert(t)
				}
			}
		}
		st = e.st
		st.Plan = np.planInfo()
		m.publish(e, out, nil, st, true, res)
	}
}

// publish freezes and inserts the carried-forward entry under the new
// epoch, counting it as maintained (carried, when the answer relation is the
// old entry's own) or recomputed.
func (m *maintainer) publish(e *resultEntry, rel *storage.Relation, aux any, st Stats, maintained bool, res *MaintResult) {
	rel.Freeze()
	if aux != nil {
		freezeAux(aux)
	}
	st.Maintained = maintained
	ne := &resultEntry{
		key:      resultKey{program: e.key.program, query: e.key.query, epoch: m.cur.Epoch()},
		rel:      rel,
		st:       st,
		q:        e.q,
		hasQuery: true,
		aux:      aux,
	}
	c := m.cache
	c.mu.Lock()
	// The carried entry supersedes the old-epoch one; dropping it keeps the
	// cache (and the per-write Maintain scan) from growing by one stale
	// entry per write. A reader still pinned to the old snapshot simply
	// recomputes on its next probe.
	if el, ok := c.entries[e.key]; ok && el.Value.(*resultEntry) == e {
		c.removeLocked(el)
	}
	c.insertLocked(ne)
	c.mu.Unlock()
	if maintained {
		c.maintained.Inc()
		res.Maintained++
		if rel == e.rel {
			c.carried.Inc()
			res.Carried++
		}
	} else {
		c.recomputed.Inc()
		res.Recomputed++
	}
}

// maintainTC carries one bound TC-frontier entry across an insert-only diff
// on the kernel of tc.go, reading the database's own exit relation. It
// restarts the BFS from the frontier the new edges open up (sources already
// visited, targets not yet) against the cloned visited set, adding answers
// only for the newly visited values (plus the new exit tuples joined against
// the old visited set for the closure-join cases); an entry with no such
// frontier and no such exit tuple comes back as it is. Reports ok=false —
// recompute instead — when the entry kept no visited set, the shapes don't
// line up, or the budget is exceeded.
func maintainTC(shape *tcShape, q ast.Query, oldRel *storage.Relation, visited *storage.ValueSet, db *storage.Database, diff *storage.SnapshotDiff, budget int) (*storage.Relation, *storage.ValueSet, bool) {
	if visited == nil {
		return nil, nil, false
	}
	exit, err := shape.exitOf(db)
	edges := db.Rel(shape.edgePred)
	if err != nil || edges != nil && edges.Arity() != 2 {
		return nil, nil, false
	}
	exitDelta, edgeDelta := diff.Inserted[shape.exitPred], diff.Inserted[shape.edgePred]
	if len(edgeDelta) == 0 && len(exitDelta) == 0 {
		// Nothing this entry reads grew: answers and state carry over.
		return oldRel, visited, true
	}
	r := &tcRun{edges: edges, exit: exit, answers: oldRel, pred: q.Atom.Pred, rightLinear: shape.rightLinear,
		snk: sink{budget: budget}}
	if !r.bind(q, db.Syms) {
		return nil, nil, false
	}
	// Restart the sweep from the values the diff newly opens.
	var seeds []storage.Value
	open := func(v storage.Value) {
		if !visited.Contains(v) {
			seeds = append(seeds, v)
		}
	}
	var hits []storage.Tuple
	for _, t := range exitDelta {
		switch {
		case r.eJoin && visited.Contains(t[r.bc]):
			// A new exit tuple answers for the visited value it hangs off.
			hits = append(hits, t)
		case !r.eJoin && t[r.bc] == r.c:
			// The exit relation provides the sources: a new exit tuple matching
			// the query constant opens one.
			open(t[1-r.bc])
		}
	}
	// New edges whose source is already reachable open their targets.
	for _, e := range edgeDelta {
		if visited.Contains(e[r.bc]) {
			open(e[1-r.bc])
		}
	}
	if len(seeds) == 0 && len(hits) == 0 {
		// The diff reaches nothing this entry has visited.
		return oldRel, visited, true
	}
	if len(seeds) > 0 {
		visited = visited.Clone()
	}
	r.answers = oldRel.CowClone()
	if r.bfs(seeds, visited, r.contribute) != nil {
		return nil, nil, false
	}
	for _, t := range hits {
		r.st.Facts++
		r.answer(t[1-r.bc])
	}
	if r.snk.over(&r.st) {
		return nil, nil, false
	}
	return r.answers, visited, true
}

// maintainBounded carries one bounded-union entry across an insert-only
// diff. The expansion union is a finite set of conjunctive queries, so the
// new answers are the ones with at least one inserted tuple in their
// derivation: every positive occurrence of a changed predicate is seeded
// with the inserted tuples while the rest of the body reads the new
// database, the query's constants pushed into the binding (bindHead) and
// the plan's seeded join order followed. The old answers are cloned
// copy-on-write at the first fresh one; an entry that gains none comes back
// as it is. Sound because the union is monotone in its positive literals; a
// changed predicate under negation (in any rule — an unchanged rule's old
// derivations could be invalidated too) forces a recompute. Also returns the
// number of tuples the pass visited.
func maintainBounded(p *Plan, q ast.Query, oldRel *storage.Relation, db *storage.Database, diff *storage.SnapshotDiff) (*storage.Relation, int64, bool) {
	for _, r := range p.rules {
		for _, a := range r.Body {
			if a.Neg && len(diff.Inserted[a.Pred]) > 0 {
				return nil, 0, false
			}
		}
	}
	var visited int64
	n := q.Atom.Arity()
	rels := DBRels(db)
	slots, fixed, buf := make([]int, n), make(storage.Tuple, n), make(storage.Tuple, n)
	out := oldRel
	yield := func(b []storage.Value) bool {
		project(buf, slots, fixed, b)
		if out == oldRel {
			if oldRel.Contains(buf) {
				return true
			}
			out = oldRel.CowClone()
		}
		out.Insert(buf)
		return true
	}
	for _, r := range p.rules {
		var c *Conj
		var binding []storage.Value
		for bi, a := range r.Body {
			ts := diff.Inserted[a.Pred]
			if a.Neg || len(ts) == 0 || len(ts[0]) != a.Arity() {
				continue
			}
			if c == nil {
				var ok bool
				var err error
				if c, binding, ok, err = bindHead(r, q, db, slots, fixed); err != nil {
					return nil, 0, false
				}
				if !ok {
					break // the head cannot unify with the query
				}
			}
			var order []int
			if ord := p.book.orderFor(r); ord != nil && ord.seeded != nil {
				order = ord.seeded[bi]
			}
			s := newSeederWith(c, rels, binding, order, &visited, yield)
			for _, t := range ts {
				s.seed(bi, t)
			}
		}
	}
	return out, visited, true
}

// incrementalFixpoint carries a program's view across an insert-only EDB
// delta on the round driver: the diff seeds the first frontier (diffSeed) and
// delta rounds run to quiescence over the frozen old IDB relations, each
// cloned copy-on-write at its first fresh tuple (Database.Ensure), all on the
// calling goroutine — the budget already caps the work below what fan-out
// would pay for. The new view records each head's old length (fixAux.from),
// past which lie the tuples the pass derived; a head that gained none is the
// old relation still. nil when the pass does not apply or runs over budget.
// Sound for positive programs only — restarting semi-naive iteration from
// the old fixpoint plus the delta converges to the new least fixpoint because
// evaluation is monotone and the old fixpoint is a subset of the new one.
func incrementalFixpoint(prog *ast.Program, aux *fixAux, db *storage.Database, diff *storage.SnapshotDiff, budget func(size int) int) *fixAux {
	if ast.HasNegation(prog) {
		return nil
	}
	idb := make(map[string]bool, len(aux.idb))
	from := make(map[string]int, len(aux.idb))
	touched, size := false, 0
	for pred, r := range aux.idb {
		idb[pred] = true
		from[pred] = r.Len()
		size += r.Len()
		touched = touched || len(diff.Inserted[pred]) > 0
	}
	for _, r := range prog.Rules {
		if !idb[r.Head.Pred] {
			return nil // the view predates this rule's head
		}
		for _, a := range r.Body {
			touched = touched || len(diff.Inserted[a.Pred]) > 0
		}
	}
	if !touched {
		return &fixAux{idb: aux.idb, from: from}
	}
	// Working database: the new EDB and the old IDB, both shared read-only.
	work := storage.NewDatabaseWithSymbols(db.Syms)
	for _, pred := range db.Preds() {
		work.Set(pred, db.Rel(pred))
	}
	for pred, r := range aux.idb {
		work.Set(pred, r)
	}
	rules, err := compileRules(db.Syms, prog.Rules, nil)
	if err != nil {
		return nil
	}
	run := fixRun{work: work, full: DBRels(work), workers: 1, snk: sink{budget: budget(size)}}
	if run.stratum(diffSeed{diff}, rules, idb, 0) != nil {
		return nil
	}
	heads := make(map[string]*storage.Relation, len(aux.idb))
	for pred := range aux.idb {
		heads[pred] = work.Rel(pred)
	}
	return &fixAux{idb: heads, from: from}
}
