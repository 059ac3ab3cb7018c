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
// and under a budget sink:
//
//   - TC frontier plans restart the kernel's bfs from the new edges'
//     endpoints against the frozen closure (bound queries), or compose the
//     new edges against the frozen closure (all-free queries). The cached
//     exit relation and visited set captured at compute time (tcAux) make
//     the restart O(new reachable region), never O(graph).
//   - Bounded plans re-run only the expansion terms that mention a changed
//     predicate, inserting into a copy-on-write clone of the old answers.
//   - Stable/generic parallel plans run the round driver with a diffSeed —
//     the inserted tuples over the frozen old fixpoint (fixAux) — shared by
//     every cached query of the same program.
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
	// Opts carries workers, metrics and tracing into the delta passes and
	// fallback recomputes.
	Opts Opts
	// Budget caps the number of derivation attempts a delta pass may make
	// before falling back to a full recompute; 0 means an adaptive default
	// proportional to the entry size plus the diff size.
	Budget int
}

// MaintResult reports what happened to the maintainable entries.
type MaintResult struct {
	// Maintained entries were carried forward by a delta pass.
	Maintained int
	// Recomputed entries were rebuilt from scratch (fallback).
	Recomputed int
	// Skipped entries were left behind at the old epoch (foreign program,
	// failed recompute); they age out of the LRU.
	Skipped int
}

// tcAux is the maintenance state of a TC-frontier entry: the materialized
// exit relation and, for bound queries, the BFS visited set. Both are
// immutable once the entry is published.
type tcAux struct {
	exit    *storage.Relation
	visited *storage.ValueSet // nil for the all-free query (answers = closure)
}

// fixAux is the maintenance state of a fixpoint-plan entry: the
// materialized IDB relations of the program at the entry's epoch. Shared by
// every cached query of the same program; immutable once published.
type fixAux struct {
	idb map[string]*storage.Relation
}

// newFixAux collects the head (and program-fact) relations of the program
// out of the engine's working database.
func newFixAux(prog *ast.Program, work *storage.Database) *fixAux {
	m := make(map[string]*storage.Relation)
	for _, r := range prog.Rules {
		if _, ok := m[r.Head.Pred]; !ok {
			if rel := work.Rel(r.Head.Pred); rel != nil {
				m[r.Head.Pred] = rel
			}
		}
	}
	for _, f := range prog.Facts {
		if _, ok := m[f.Pred]; !ok {
			if rel := work.Rel(f.Pred); rel != nil {
				m[f.Pred] = rel
			}
		}
	}
	return &fixAux{idb: m}
}

// freezeAux freezes the relations a maintenance state holds, making the
// entry safe for concurrent readers (and for CowClone at the next write).
func freezeAux(aux any) {
	switch a := aux.(type) {
	case *tcAux:
		if a.exit != nil {
			a.exit.Freeze()
		}
	case *fixAux:
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

// maintainer is the per-Maintain working state: the diff, and a memo so all
// cached queries of the program share a single maintained (or recomputed)
// fixpoint.
type maintainer struct {
	cache    *ResultCache
	cur      *storage.Snapshot
	spec     MaintSpec
	diff     *storage.SnapshotDiff
	diffOK   bool
	diffSize int
	fix      *fixState // the shared fixpoint outcome, once fixTried
	fixTried bool
}

// fixState is the memoized outcome of maintaining the program's fixpoint;
// nil records a failed attempt (don't retry per entry).
type fixState struct {
	aux        *fixAux
	maintained bool
	st         Stats // the recompute's own stats when !maintained
}

// budget returns the derivation-attempt cap for a delta pass over an entry
// of the given size.
func (m *maintainer) budget(oldSize int) int {
	if m.spec.Budget > 0 {
		return m.spec.Budget
	}
	return 1<<14 + 32*(oldSize+m.diffSize)
}

// entry carries one entry across the diff: by the delta kernel of the plan
// that is sound on the new database (Plan.over — an insert under the planned
// predicate itself retires the TC and bounded deltas for good), or by
// recomputing it through Plan.run when that kernel declines.
func (m *maintainer) entry(e *resultEntry, res *MaintResult) {
	p, _, err := m.spec.Planner.planFor(m.spec.Sys, e.q, m.cur.DB(), m.spec.Opts)
	if err != nil {
		res.Skipped++
		return
	}
	if m.diffOK && m.diff.Empty() {
		// A write that inserted nothing new: the answers carry over as-is.
		m.publish(e, e.rel, e.aux, e.st, true, res)
		return
	}
	p = p.over(m.cur.DB())
	switch p.Kind {
	case PlanTC:
		if m.diffOK {
			aux, _ := e.aux.(*tcAux)
			if rel, na, ok := maintainTC(p.sys, p.tc, e.q, e.rel, aux, m.cur.DB(), m.diff, m.budget(e.rel.Len())); ok {
				m.publish(e, rel, na, e.st, true, res)
				return
			}
		}
	case PlanBounded:
		if m.diffOK {
			if rel, ok := maintainBounded(p.rules, e.q, e.rel, m.cur.DB(), m.diff); ok {
				m.publish(e, rel, nil, e.st, true, res)
				return
			}
		}
	default: // PlanStable, PlanGeneric: one maintained fixpoint for all entries.
		fs := m.fixStateFor(p, e)
		if fs == nil {
			res.Skipped++
			return
		}
		ans, err := answerFromFix(fs.aux, m.cur, e.q)
		if err != nil {
			res.Skipped++
			return
		}
		st := e.st
		if !fs.maintained {
			st = fs.st
		}
		m.publish(e, ans, fs.aux, st, fs.maintained, res)
		return
	}
	// Fallback: recompute the entry from scratch at the new epoch.
	rel, aux, st, err := p.run(e.q, m.cur.DB(), m.spec.Opts, sink{})
	if err != nil {
		res.Skipped++
		return
	}
	m.publish(e, rel, aux, st, false, res)
}

// fixStateFor returns the program's maintained fixpoint, computing it on
// first use: the incremental delta pass when the diff, the program and the
// entry's state allow it, a full recompute through the plan otherwise.
func (m *maintainer) fixStateFor(p *Plan, e *resultEntry) *fixState {
	if m.fixTried {
		return m.fix
	}
	var fs *fixState
	if old, _ := e.aux.(*fixAux); m.diffOK && old != nil {
		size := 0
		for _, r := range old.idb {
			size += r.Len()
		}
		if na, ok := incrementalFixpoint(p.fix.Program(), old, m.cur.DB(), m.diff, m.budget(size)); ok {
			fs = &fixState{aux: na, maintained: true}
		}
	}
	if fs == nil {
		if _, aux, st, err := p.run(e.q, m.cur.DB(), m.spec.Opts, sink{}); err == nil {
			fs = &fixState{aux: aux.(*fixAux), st: st}
		}
	}
	m.fix, m.fixTried = fs, true
	return fs
}

// publish freezes and inserts the carried-forward entry under the new
// epoch, counting it as maintained or recomputed.
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
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.size
	}
	c.insertLocked(ne)
	c.mu.Unlock()
	if maintained {
		c.maintained.Inc()
		res.Maintained++
	} else {
		c.recomputed.Inc()
		res.Recomputed++
	}
}

// answerFromFix selects the query's answers out of the maintained fixpoint
// (falling back to the snapshot's base relation for a non-derived
// predicate).
func answerFromFix(aux *fixAux, cur *storage.Snapshot, q ast.Query) (*storage.Relation, error) {
	overlay := storage.NewDatabaseWithSymbols(cur.Syms())
	for pred, r := range aux.idb {
		overlay.Set(pred, r)
	}
	if overlay.Rel(q.Atom.Pred) == nil {
		if r := cur.Rel(q.Atom.Pred); r != nil {
			overlay.Set(q.Atom.Pred, r)
		}
	}
	return AnswerQuery(overlay, q)
}

// maintainTC carries one TC-frontier entry across an insert-only diff on the
// kernel of tc.go. The bound cases restart the BFS from the frontier the new
// edges open up (sources already visited, targets not yet) against the
// cloned visited set, adding answers only for the newly visited values (plus
// the new exit tuples joined against the whole visited set for the
// closure-join cases). The all-free case composes the new exit tuples and
// the new edges against a copy-on-write clone of the frozen closure. Reports
// ok=false — recompute instead — when negation is involved, the shapes
// don't line up, or the budget is exceeded.
func maintainTC(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, oldRel *storage.Relation, aux *tcAux, db *storage.Database, diff *storage.SnapshotDiff, budget int) (*storage.Relation, *tcAux, bool) {
	if aux == nil || aux.exit == nil {
		return nil, nil, false
	}
	// Exit rules reading a changed predicate force an exit rematerialize;
	// negation over a changed predicate breaks insert-only monotonicity.
	exitChanged := false
	for _, er := range sys.Exits {
		for _, a := range er.Body {
			if len(diff.Inserted[a.Pred]) == 0 {
				continue
			}
			if a.Neg {
				return nil, nil, false
			}
			exitChanged = true
		}
	}
	exit := aux.exit
	var exitDelta []storage.Tuple
	if exitChanged {
		// Delta-evaluate only the affected exit rules — one diff-seeded
		// round over the nonrecursive exit rules. Rematerializing the whole
		// exit relation would make every write O(database), swamping the
		// delta pass it feeds.
		rules, err := compileRules(db.Syms, sys.Exits, nil)
		if err != nil {
			return nil, nil, false
		}
		exit = aux.exit.CowClone()
		run := fixRun{full: DBRels(db), workers: 1}
		fr := make(frontier)
		tasks := diffTasks(rules, nil, diff, func(string) *storage.Relation { return exit })
		if _, err := run.run(0, tasks, 0, 0, fr); err != nil {
			return nil, nil, false
		}
		exitDelta = fr[sys.Pred()]
		exit.CompactIndexes()
	}
	edges := db.Rel(shape.edgePred)
	if edges != nil && edges.Arity() != 2 {
		return nil, nil, false
	}
	edgeDelta := diff.Inserted[shape.edgePred]
	if len(edgeDelta) == 0 && len(exitDelta) == 0 {
		// Nothing this entry reads grew: answers and state carry over.
		return oldRel, &tcAux{exit: exit, visited: aux.visited}, true
	}

	r := &tcRun{edges: edges, exit: exit, answers: oldRel.CowClone(), pred: q.Atom.Pred, jc: shape.joinCol(),
		snk: sink{budget: budget}}
	st := &r.st
	bound, ok := r.bind(q, db.Syms)
	if !ok {
		return nil, nil, false
	}
	if !bound {
		// All-free: the answers are the closure. The first delta is the new
		// exit tuples plus the new edges composed against the frozen old
		// closure — Δq(u, v) ∘ p_old(v, y) → p(u, y), resp. p_old(x, z) ∘
		// Δq(z, y) → p(x, y); compose rounds against the full new edge
		// relation do the rest.
		var delta []storage.Tuple
		grow := func(t storage.Tuple) {
			st.Facts++
			if fresh, _ := r.add(t); fresh != nil {
				delta = append(delta, fresh)
			}
		}
		for _, t := range exitDelta {
			grow(t)
		}
		jc := r.jc
		for _, e := range edgeDelta {
			oldRel.EachCol(jc, e[1-jc], func(p storage.Tuple) bool {
				r.buf[jc], r.buf[1-jc] = e[jc], p[1-jc]
				grow(r.buf[:])
				return true
			})
		}
		if r.snk.over(st) || r.compose(delta) != nil {
			return nil, nil, false
		}
		r.answers.CompactIndexes()
		return r.answers, &tcAux{exit: exit}, true
	}

	// Bound query: restart the sweep from the values the diff newly opens.
	if aux.visited == nil {
		return nil, nil, false
	}
	visited := aux.visited.Clone()
	var seeds []storage.Value
	if !r.eJoin {
		// The exit relation provided the seeds: new exit tuples matching the
		// query constant open new BFS sources.
		for _, t := range exitDelta {
			if t[r.bc] == r.c {
				seeds = append(seeds, t[1-r.bc])
			}
		}
	}
	// New edges whose source is already reachable open their targets.
	for _, e := range edgeDelta {
		if visited.Contains(e[r.bc]) {
			seeds = append(seeds, e[1-r.bc])
		}
	}
	if r.bfs(seeds, visited, r.contribute) != nil {
		return nil, nil, false
	}
	if r.eJoin {
		// New exit tuples answer for every visited value, old or new.
		for _, t := range exitDelta {
			if visited.Contains(t[r.bc]) {
				st.Facts++
				r.answer(t[1-r.bc])
			}
		}
	}
	if r.snk.over(st) {
		return nil, nil, false
	}
	r.answers.CompactIndexes()
	return r.answers, &tcAux{exit: exit, visited: visited}, true
}

// maintainBounded carries one bounded-union entry across an insert-only
// diff by re-running only the expansion rules that mention a changed
// predicate, inserting into a copy-on-write clone of the old answers.
// Sound because the expansion union is monotone in its positive literals;
// a changed predicate under negation (in any rule — an unchanged rule's old
// derivations could be invalidated too) forces a recompute.
func maintainBounded(rules []ast.Rule, q ast.Query, oldRel *storage.Relation, db *storage.Database, diff *storage.SnapshotDiff) (*storage.Relation, bool) {
	var affected []ast.Rule
	for _, r := range rules {
		hit := false
		for _, a := range r.Body {
			if len(diff.Inserted[a.Pred]) == 0 {
				continue
			}
			if a.Neg {
				return nil, false
			}
			hit = true
		}
		if hit {
			affected = append(affected, r)
		}
	}
	if len(affected) == 0 {
		return oldRel, true
	}
	out := oldRel.CowClone()
	var st Stats
	rs := newRoundSink(&st, Opts{}, nil)
	if err := unionRules(affected, q, db, out, &st, &rs, Opts{}, sink{}); err != nil {
		return nil, false
	}
	out.CompactIndexes()
	return out, true
}

// incrementalFixpoint carries a program's materialized least fixpoint
// across an insert-only EDB delta on the round driver: the old IDB relations
// are extended copy-on-write, the diff seeds the first frontier (diffSeed)
// and delta rounds run to quiescence, all on the calling goroutine — the
// budget already caps the work below what fan-out would pay for. Sound for
// positive programs only — restarting semi-naive iteration from the old
// fixpoint plus the delta converges to the new least fixpoint because
// evaluation is monotone and the old fixpoint is a subset of the new one.
func incrementalFixpoint(prog *ast.Program, aux *fixAux, db *storage.Database, diff *storage.SnapshotDiff, budget int) (*fixAux, bool) {
	if ast.HasNegation(prog) {
		return nil, false
	}
	idb := make(map[string]bool, len(aux.idb))
	for pred := range aux.idb {
		idb[pred] = true
	}
	for _, r := range prog.Rules {
		if !idb[r.Head.Pred] {
			return nil, false // fixpoint state predates this rule's head
		}
	}
	// Working database: the new EDB shared read-only, the old IDB extended
	// copy-on-write (Ensure cow-clones the frozen relations).
	work := storage.NewDatabaseWithSymbols(db.Syms)
	for _, pred := range db.Preds() {
		if !idb[pred] {
			work.Set(pred, db.Rel(pred))
		}
	}
	heads := make(map[string]*storage.Relation, len(aux.idb))
	for pred, r := range aux.idb {
		work.Set(pred, r)
		wr, err := work.Ensure(pred, r.Arity())
		if err != nil {
			return nil, false
		}
		heads[pred] = wr
	}
	rules, err := compileRules(db.Syms, prog.Rules, nil)
	if err != nil {
		return nil, false
	}
	run := fixRun{work: work, full: DBRels(work), workers: 1, snk: sink{budget: budget}}
	if run.stratum(diffSeed{diff}, rules, idb, 0) != nil {
		return nil, false
	}
	for _, r := range heads {
		r.CompactIndexes()
	}
	return &fixAux{idb: heads}, true
}
