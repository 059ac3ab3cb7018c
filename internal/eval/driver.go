package eval

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The round driver. Every compiled formula is an exit relation unioned with
// a repeatedly applied join chain, so every way of evaluating one is "a seed
// plus delta rounds": a seed produces the first frontier, each round splits
// the frontier into tasks, the tasks join their slice against read-only
// snapshots of the full relations into private buffers, and a
// single-threaded barrier merges the buffers into the head relations in
// deterministic task order and files every fresh tuple under the next
// round's frontier. The ways of consuming that loop differ in two small
// values only — seed × sink:
//
//   - the seed (roundSeed): a full pass of the rules that need no derived
//     input followed by everything in the heads (fullSeed, cold start), or
//     the inserted tuples of a storage.SnapshotDiff over copy-on-write
//     extended heads (diffSeed, incremental maintenance);
//   - the sink: what else happens to a fresh head tuple at the merge —
//     nothing (materialize), a consumer that may decline it (stream), or a
//     work budget that may run out (maintenance).
//
// A round's tasks are contiguous chunks of each predicate's frontier, three
// per worker, unless the round is narrow (below). SemiNaiveOpts is this loop
// on one worker, and answers are identical to NaiveOpts' (the independent
// oracle) whatever the combination and the worker count: the chunks are
// exhaustive and disjoint, the fixpoint is confluent and the merge order is
// deterministic (an unchunked task derives, in order, what its chunks would).

// roundGrain is the order-book estimate (tuples visited) below which a round
// is narrow: one task per (rule, occurrence), run on the calling goroutine,
// as fanning it out costs more than the work it would split. A bookless
// round (estimate 0) always fans out.
const roundGrain = 1024

func narrow(est int64) bool { return est > 0 && est < roundGrain }

// errStreamStop is the internal sentinel an evaluation returns when the
// sink's consumer declined further tuples (limit satisfied, goal answered,
// iterator closed). It never escapes the package: the iterator translates it
// to a clean end-of-stream.
var errStreamStop = errors.New("eval: stream consumer stopped")

// errOverBudget ends a maintenance pass whose sink ran out of budget; the
// caller recomputes the entry from scratch instead.
var errOverBudget = errors.New("eval: maintenance budget exceeded")

// sink is what a barrier merge does with a fresh head tuple beyond inserting
// it. The zero value materializes only.
type sink struct {
	// emit, when non-nil, is handed every fresh tuple of pred as soon as it
	// exists, in deterministic merge order; returning false ends the
	// evaluation with errStreamStop. Emitted tuples alias the head
	// relation's arena and stay valid as long as it does.
	pred string
	emit func(storage.Tuple) bool
	// budget, when positive, caps the derivation attempts (Stats.Facts) of
	// the evaluation; the round that exceeds it ends it with errOverBudget.
	budget int
	// magic, when set, is the query adornment whose magic-sets program a
	// bound stream runs; it only labels the fixpoint span.
	magic string
}

// fresh shows a newly inserted tuple of pred to the consumer; false stops
// the evaluation.
func (s *sink) fresh(pred string, t storage.Tuple) bool {
	return s.emit == nil || pred != s.pred || s.emit(t)
}

// over reports whether the evaluation has spent its budget.
func (s *sink) over(st *Stats) bool { return s.budget > 0 && st.Facts > s.budget }

// frontier is a round's input: per predicate, the tuples the previous round
// derived. The tuples alias the head relations' arenas (Insert copied them
// there; At returns the arena-backed header), so filing one allocates
// nothing and task buffers return to the pool right after the merge.
type frontier map[string][]storage.Tuple

// parTask is one unit of round work: evaluate one rule with one positive
// body occurrence restricted to a chunk of that predicate's frontier (or,
// for seedIdx −1, evaluate the whole rule once). head is the relation the
// output merges into, frozen for the round; workers only call Contains on it
// (an allocation-free word-hash probe) to prefilter derivations already
// known, so the single-threaded merge touches near-new tuples only.
type parTask struct {
	cr      *compiledRule
	pred    string
	seedIdx int
	chunk   []storage.Tuple
	head    *storage.Relation
	// span is the round span the task's join span attaches under; nil when
	// untraced. Workers emit concurrently — obs.Span serializes internally.
	span *obs.Span
}

// parResult is a task's private output buffer, merged single-threaded. The
// buffer relation comes from taskBuffers and is returned to it right after
// the merge, so steady-state rounds reuse the same arenas and hash tables
// instead of reallocating them per task.
type parResult struct {
	out       *storage.Relation
	attempted int
	// visits counts the tuples the task's enumerations walked (see
	// Stats.Visited); accumulated task-locally, summed at the merge.
	visits int64
	busy   time.Duration
}

// taskBuffers recycles task output relations across rounds and evaluations.
// A pooled relation is Reset (arena blocks and membership table kept,
// contents dropped) before reuse, so a task buffer allocates only when the
// task derives more than the buffer's previous users did.
var taskBuffers sync.Pool

func getTaskBuffer(arity int) *storage.Relation {
	if v := taskBuffers.Get(); v != nil {
		r := v.(*storage.Relation)
		r.Reset(arity)
		return r
	}
	return storage.NewRelation(arity)
}

// workerScratch holds one worker's reusable binding and head projection
// buffers, sized up lazily to the widest rule it has run.
type workerScratch struct {
	binding []storage.Value
	buf     storage.Tuple
}

func (ws *workerScratch) bindingFor(n int) []storage.Value {
	if cap(ws.binding) < n {
		ws.binding = make([]storage.Value, n)
	}
	b := ws.binding[:n]
	for i := range b {
		b[i] = Unbound
	}
	return b
}

func (ws *workerScratch) bufFor(n int) storage.Tuple {
	if cap(ws.buf) < n {
		ws.buf = make(storage.Tuple, n)
	}
	return ws.buf[:n]
}

// runTasks runs the tasks and collects one private result buffer per task
// (indexed by task, so no locking is needed beyond the WaitGroup). A single
// task or a single worker runs on the calling goroutine — a one-fact
// maintenance delta costs no fan-out; otherwise the tasks are fanned across
// the worker pool, the first task error aborts the remaining work, and all
// workers are joined before return. Panics inside a task are converted to
// errors so a misbehaving rule cannot kill unrelated goroutines.
func runTasks(tasks []parTask, workers int, rels RelFunc) ([]parResult, time.Duration, error) {
	results := make([]parResult, len(tasks))
	if workers <= 1 {
		var scratch workerScratch
		for id := range tasks {
			if err := runTask(&results[id], tasks[id], rels, &scratch); err != nil {
				return nil, 0, err
			}
		}
	} else {
		taskCh := make(chan int)
		errCh := make(chan error, 1)
		abort := make(chan struct{})
		var abortOnce sync.Once
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch workerScratch
				for {
					select {
					case <-abort:
						return
					case id, ok := <-taskCh:
						if !ok {
							return
						}
						if err := runTask(&results[id], tasks[id], rels, &scratch); err != nil {
							select {
							case errCh <- err:
							default:
							}
							abortOnce.Do(func() { close(abort) })
							return
						}
					}
				}
			}()
		}
	feed:
		for id := range tasks {
			select {
			case taskCh <- id:
			case <-abort:
				break feed
			}
		}
		close(taskCh)
		wg.Wait()
		select {
		case err := <-errCh:
			return nil, 0, err
		default:
		}
	}
	var busy time.Duration
	for i := range results {
		busy += results[i].busy
	}
	return results, busy, nil
}

// runTask evaluates one task into a pooled private buffer, reusing the
// worker's binding and projection scratch.
func runTask(res *parResult, task parTask, rels RelFunc, scratch *workerScratch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("eval: round task for %s: %v", task.pred, r)
		}
	}()
	start := time.Now()
	cr := task.cr
	// Workers attach join spans concurrently; obs.Span serializes through
	// the tracer. Guard the rule.String() so untraced runs stay
	// allocation-free.
	var js *obs.Span
	if task.span != nil {
		js = task.span.Child("join").SetStr("rule", cr.rule.String())
		if task.seedIdx >= 0 {
			js.SetInt("chunk", int64(len(task.chunk)))
		}
	}
	out := getTaskBuffer(len(cr.slots))
	buf := scratch.bufFor(len(cr.slots))
	attempted := 0
	yield := func(b []storage.Value) bool {
		project(buf, cr.slots, cr.fixed, b)
		attempted++
		// Derivations already in the head (frozen this round; reads are
		// safe) cost one hash probe here instead of a buffer insert plus
		// a merge insert on the coordinator.
		if !task.head.Contains(buf) {
			out.Insert(buf)
		}
		return true
	}
	binding := scratch.bindingFor(cr.conj.NumVars())
	if task.seedIdx < 0 {
		cr.conj.EvalWith(rels, binding, cr.fullOrder(), &res.visits, yield)
	} else {
		ord, _ := cr.seededOrder(task.seedIdx)
		s := newSeederWith(cr.conj, rels, binding, ord, &res.visits, yield)
		for _, t := range task.chunk {
			s.seed(task.seedIdx, t)
		}
	}
	res.out = out
	res.attempted = attempted
	res.busy = time.Since(start)
	js.SetInt("attempted", int64(attempted)).SetInt("buffered", int64(out.Len())).SetInt("visited", res.visits).End()
	return nil
}

// fixRun is the state of one evaluation on the round driver.
type fixRun struct {
	// work holds the head relations; full resolves the relations the tasks
	// read (work, with its indexes built before workers share it).
	work    *storage.Database
	full    RelFunc
	workers int
	snk     sink
	rs      roundSink
	st      Stats
	opts    Opts
	round   int // global round number across strata
}

// run executes one round: fan the tasks out (a narrow round's run inline),
// merge their buffers into the task heads in task order, file every fresh
// tuple under its predicate in next (nil: no frontier), show it to the
// sink, and record the round. It returns the number of fresh tuples. The
// abort channel is polled once per round; a close surfaces as ErrCanceled.
func (r *fixRun) run(stratum int, tasks []parTask, est int64, delta int, next frontier) (int, error) {
	if r.opts.canceled() {
		return 0, fmt.Errorf("parallel fixpoint: %w", ErrCanceled)
	}
	r.round++
	r.st.Rounds++
	r.rs.begin()
	for i := range tasks {
		tasks[i].span = r.rs.span
	}
	workers := min(r.workers, len(tasks))
	if narrow(est) {
		workers = min(1, workers)
	}
	results, busy, err := runTasks(tasks, workers, r.full)
	if err != nil {
		return 0, err
	}
	added, attempted := 0, 0
	var visited int64
	stopped := false
	for i, res := range results {
		attempted += res.attempted
		visited += res.visits
		// Buffers after a stop are dropped unmerged — the consumer is gone,
		// only the pooled capacity is worth keeping.
		if !stopped {
			pred, head := tasks[i].pred, tasks[i].head
			if head.Frozen() && res.out.Len() > 0 {
				// A carried fixpoint relation (incrementalFixpoint) is cloned
				// copy-on-write at its first fresh tuple, not before.
				if head, err = r.work.Ensure(pred, head.Arity()); err != nil {
					return 0, err
				}
			}
			res.out.Each(func(t storage.Tuple) bool {
				if !head.Insert(t) {
					return true
				}
				added++
				nt := head.At(head.Len() - 1)
				if next != nil {
					next[pred] = append(next[pred], nt)
				}
				stopped = !r.snk.fresh(pred, nt)
				return !stopped
			})
		}
		taskBuffers.Put(res.out)
	}
	r.st.Facts += attempted
	r.st.Derived += added
	r.st.Visited += visited
	r.rs.end(RoundStats{
		Round: r.round, Stratum: stratum, Tasks: len(tasks), Delta: delta,
		Derived: added, Attempted: attempted, Workers: workers, Busy: busy,
		Estimated: est, Visited: visited,
	})
	switch {
	case stopped:
		return added, errStreamStop
	case r.snk.over(&r.st):
		return added, errOverBudget
	}
	return added, nil
}

// roundSeed produces a stratum's first frontier, running a seed round on r
// when it needs one.
type roundSeed interface {
	seed(r *fixRun, rules []compiledRule, local map[string]bool, stratum int) (frontier, error)
}

// hasLocalLit reports whether the rule reads one of the stratum's own
// predicates positively — whether it takes part in the delta rounds.
func hasLocalLit(cr *compiledRule, local map[string]bool) bool {
	for _, a := range cr.rule.Body {
		if !a.Neg && local[a.Pred] {
			return true
		}
	}
	return false
}

// fullSeed is the cold start: rules with no positive local literal run once
// in full, one task per rule, and the first frontier is everything in the
// head relations afterwards — pre-existing facts plus the seed derivations.
type fullSeed struct{}

func (fullSeed) seed(r *fixRun, rules []compiledRule, local map[string]bool, stratum int) (frontier, error) {
	var tasks []parTask
	var est int64
	for i := range rules {
		cr := &rules[i]
		if hasLocalLit(cr, local) {
			continue
		}
		if cr.ord != nil && cr.ord.full != nil {
			est += int64(cr.ord.fullCost)
		}
		pred := cr.rule.Head.Pred
		tasks = append(tasks, parTask{cr: cr, pred: pred, seedIdx: -1, head: r.work.Rel(pred)})
	}
	if len(tasks) > 0 {
		if _, err := r.run(stratum, tasks, est, 0, nil); err != nil {
			return nil, err
		}
	}
	fr := make(frontier)
	for pred := range local {
		// Aliases the head: valid while it grows, appends never touch the
		// prefix.
		if ts := r.work.Rel(pred).Tuples(); len(ts) > 0 {
			fr[pred] = ts
		}
	}
	return fr, nil
}

// diffSeed is the maintenance seed: the heads already hold the old fixpoint
// (frozen; one that grows is extended copy-on-write), inserted tuples of
// derived predicates enter them and the frontier directly, and one seed round
// runs one task per positive occurrence of a changed base predicate,
// restricted to its inserted tuples while the other occurrences read the
// full (new) database — the semi-naive seeded join over a snapshot diff
// instead of a round's delta. Two changed occurrences in one rule are covered
// pairwise: each seeding reads the other occurrence's full relation.
type diffSeed struct{ diff *storage.SnapshotDiff }

func (d diffSeed) seed(r *fixRun, rules []compiledRule, local map[string]bool, stratum int) (frontier, error) {
	fr := make(frontier)
	for pred, ts := range d.diff.Inserted {
		if !local[pred] {
			continue
		}
		head, err := r.work.Ensure(pred, len(ts[0]))
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if head.Insert(t) {
				fr[pred] = append(fr[pred], head.At(head.Len()-1))
			}
		}
	}
	var tasks []parTask
	for i := range rules {
		cr := &rules[i]
		for bi, a := range cr.rule.Body {
			ts := d.diff.Inserted[a.Pred]
			// A relation's tuples share one arity; an occurrence of another
			// arity can never match it.
			if a.Neg || local[a.Pred] || len(ts) == 0 || len(ts[0]) != a.Arity() {
				continue
			}
			pred := cr.rule.Head.Pred
			tasks = append(tasks, parTask{cr: cr, pred: pred, seedIdx: bi, chunk: ts, head: r.work.Rel(pred)})
		}
	}
	if len(tasks) > 0 {
		if _, err := r.run(stratum, tasks, 0, 0, fr); err != nil {
			return nil, err
		}
	}
	return fr, nil
}

// stratum saturates one rule group: the seed's first frontier, then delta
// rounds — one task per (rule, positive local occurrence, chunk; one chunk
// when narrow) — until a round derives nothing.
func (r *fixRun) stratum(sd roundSeed, rules []compiledRule, local map[string]bool, stratum int) error {
	fr, err := sd.seed(r, rules, local, stratum)
	if err != nil {
		return err
	}
	for {
		var est int64
		for i := range rules {
			for bi, a := range rules[i].rule.Body {
				if _, perTuple := rules[i].seededOrder(bi); perTuple > 0 && !a.Neg && local[a.Pred] {
					est += int64(perTuple * float64(len(fr[a.Pred])))
				}
			}
		}
		parts := r.workers * 3
		if narrow(est) {
			parts = 1
		}
		var tasks []parTask
		delta := 0
		for i := range rules {
			cr := &rules[i]
			for bi, a := range cr.rule.Body {
				d := fr[a.Pred]
				if a.Neg || !local[a.Pred] {
					continue
				}
				// parts contiguous chunks, as storage.PartitionTuples cuts them.
				pred, per := cr.rule.Head.Pred, max(1, (len(d)+parts-1)/parts)
				for lo := 0; lo < len(d); lo += per {
					tasks = append(tasks, parTask{cr: cr, pred: pred, seedIdx: bi, chunk: d[lo:min(lo+per, len(d))], head: r.work.Rel(pred)})
				}
			}
		}
		for _, d := range fr {
			delta += len(d)
		}
		next := make(frontier)
		added, err := r.run(stratum, tasks, est, delta, next)
		if err != nil {
			return err
		}
		if added == 0 {
			return nil
		}
		fr = next
	}
}

// fixpoint is the cold-start evaluation of a stratified program on the round
// driver — the core of every parallel, streamed and auto-planned fixpoint.
// With a streaming sink, the facts of its predicate present before any rule
// fires (EDB tuples under the query predicate, or IDB facts loaded directly)
// stream first; when the consumer stops, the partially saturated database is
// returned with errStreamStop so the caller can account for it, but it is
// NOT a fixpoint.
func fixpoint(prog *ast.Program, cache *atomic.Pointer[compiledProgram], db *storage.Database, opts Opts, snk sink) (*storage.Database, Stats, error) {
	work, idb, err := prepare(prog, db)
	if err != nil {
		return nil, Stats{}, err
	}
	cp, err := compileProgram(prog, db.Syms, opts.book, cache)
	if err != nil {
		return nil, Stats{}, err
	}
	// Materialize every column index up front: index construction is the
	// only mutation on the relations' read path, so after this the workers
	// may share the database freely (storage.Relation's concurrency
	// contract). Inserts during the single-threaded merges keep the
	// indexes current.
	work.BuildIndexes()
	r := &fixRun{work: work, full: DBRels(work), workers: opts.workers, snk: snk, opts: opts}
	st := &r.st
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	fix := opts.parent().Child("fixpoint").SetStr("engine", "parallel")
	if snk.magic != "" {
		fix.SetStr("magic", snk.magic)
	}
	defer fix.End()
	if rel := work.Rel(snk.pred); snk.emit != nil && rel != nil {
		stopped := false
		rel.Each(func(t storage.Tuple) bool {
			stopped = !snk.emit(t)
			return !stopped
		})
		if stopped {
			flushDB(opts, st, work, idb)
			return work, *st, errStreamStop
		}
	}
	r.rs = newRoundSink(st, opts, fix)
	for si, rules := range cp.strata {
		local := make(map[string]bool)
		for i := range rules {
			local[rules[i].rule.Head.Pred] = true
		}
		r0 := r.round
		if err := r.stratum(fullSeed{}, rules, local, si); err != nil {
			if err == errStreamStop {
				flushDB(opts, st, work, idb)
				return work, *st, err
			}
			return nil, *st, err
		}
		r.rs.stratumDone(r.round - r0)
	}
	fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
	flushDB(opts, st, work, idb)
	return work, *st, nil
}

// SemiNaiveOpts computes the program's fixpoint with delta relations on the
// round driver with one worker: each round evaluates every rule once per
// positive occurrence of a predicate of its stratum, with that occurrence
// restricted to the previous round's delta — for the paper's linear rules
// the classic one-delta evaluation. Programs with negated body literals are
// evaluated stratum by stratum. NaiveOpts is the independent oracle it is
// checked against.
func SemiNaiveOpts(prog *ast.Program, db *storage.Database, opts Opts) (*storage.Database, Stats, error) {
	opts.workers = 1
	return fixpoint(prog, nil, db, opts, sink{})
}

// ParallelSemiNaiveOpts is SemiNaiveOpts with a worker pool — the cold path
// of every auto-planned fixpoint: each round's delta is fanned out as (rule,
// delta-occurrence, chunk) tasks and merged single-threaded before the
// deltas swap. Answers, rounds and derivations are those of SemiNaiveOpts
// at any pool size; per-round metrics are recorded in Stats.Trace.
func ParallelSemiNaiveOpts(prog *ast.Program, db *storage.Database, opts Opts) (*storage.Database, Stats, error) {
	return fixpoint(prog, nil, db, opts, sink{})
}

// compiledProgram is a program's strata compiled against one symbol table.
// Compiled conjunctions hold interned constants, so one is valid only
// against the table that interned them.
type compiledProgram struct {
	syms   *storage.Symbols
	strata [][]compiledRule
}

// compileProgram compiles the program with the book's orders, or returns
// the one cache holds for syms; a new compile replaces the cached one (a
// plan's magic program keeps its last, so its streams on one database
// compile it once).
func compileProgram(prog *ast.Program, syms *storage.Symbols, book *orderBook, cache *atomic.Pointer[compiledProgram]) (*compiledProgram, error) {
	if cache != nil {
		if cp := cache.Load(); cp != nil && cp.syms == syms {
			return cp, nil
		}
	}
	groups, err := strataOf(prog)
	cp := &compiledProgram{syms: syms, strata: make([][]compiledRule, len(groups))}
	for i := 0; err == nil && i < len(groups); i++ {
		cp.strata[i], err = compileRules(syms, groups[i], book)
	}
	if err == nil && cache != nil {
		cache.Store(cp)
	}
	return cp, err
}
