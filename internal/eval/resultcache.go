package eval

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ResultCache memoizes materialized query answers keyed by (program, query,
// snapshot epoch). An answer depends only on the program and the database
// state, which the snapshot epoch names exactly — so a cached answer can never
// be stale: a write advances the epoch and the old entries simply stop being
// asked for, aging out of the LRU. Entries are charged against a byte budget
// (Relation.SizeBytes plus key overhead, plus the maintenance state the entry
// keeps) and evicted least-recently-used. The stable and generic plans
// evaluate the whole program before selecting, so the cache keeps that
// fixpoint once per program and epoch as the program's view — an entry like
// any other, whose aux is the *fixAux — and a fixpoint-plan entry keeps only
// its answers, selected from the view.
//
// Maintain (maintain.go) carries the previous epoch's entries forward to the
// new epoch by running a delta pass over only the inserted tuples (once per
// view), falling back to a full recompute when the delta is not expressible.
//
// Concurrent misses of one key are deduplicated singleflight-style: the
// first caller computes while the rest block on its result, so N identical
// cold queries trigger exactly one fixpoint, and so do N distinct cold
// queries of one fixpoint program (they share the view's flight). A
// panicking compute fails its flight (waiters get an error, the key stays
// usable) and re-panics in the computing goroutine. Cached relations are
// frozen (storage.Relation.Freeze) before publication, so any number of
// readers may probe and iterate them concurrently; callers must not mutate
// them (a mutation attempt panics).
//
// Hit, miss and eviction counts live in an obs.Registry under the
// dl_resultcache_{hits,misses,evictions}_total names (a view lookup counts
// nothing: it is part of the query that made it); the current byte and entry
// footprints are the dl_resultcache_{bytes,entries} gauges; the maintenance
// pass counts entries into dl_resultcache_{maintained,carried,recomputed}_total
// (carried: the maintained entries re-keyed with their relation untouched)
// and its wall-clock into the dl_resultcache_maintenance_seconds histogram.
type ResultCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[resultKey]*list.Element
	lru     *list.List // front = most recently used
	flight  map[resultKey]*flight

	hits, misses, evictions         *obs.Counter
	maintained, carried, recomputed *obs.Counter
	maintDur                        *obs.Histogram
	bytesG, entriesG                *obs.Gauge
}

// resultKey names an entry. A view is keyed by its source's programKey and
// the empty query, which no parsed query renders to: every viewed plan of a
// source runs the source's rules.
type resultKey struct {
	program string
	query   string
	epoch   uint64
}

type resultEntry struct {
	key  resultKey
	rel  *storage.Relation // nil for a view
	st   Stats
	size int64
	// q is the parsed query (valid when hasQuery), kept so Maintain can
	// re-plan and re-answer the entry at a later epoch. Do-keyed entries and
	// views have none: Maintain advances a view through its entries.
	q        ast.Query
	hasQuery bool
	// aux is the plan-class-specific maintenance state captured at compute
	// time (maintain.go): a TC entry's visited *storage.ValueSet, a view's
	// *fixAux, nil for bounded and fixpoint-plan answers.
	aux any
}

// flight is one in-progress computation other callers of the same key wait
// on. rel/aux/st/err are written once before done closes.
//
// Each flight refcounts its interested callers: the leader joins at
// creation, every waiter joins before blocking and leaves when its own
// caller gives up. When the count hits zero the flight's abort channel
// closes — the leader's compute (which runs with Opts.Abort = f.abort)
// stops at its next round boundary. As long as ANY waiter remains the
// compute keeps running even if the leader's caller disconnected: the
// result still has an audience and gets cached.
type flight struct {
	done chan struct{}
	rel  *storage.Relation
	aux  any
	st   Stats
	err  error

	mu      sync.Mutex
	waiters int
	abort   chan struct{}
	aborted bool
}

// tryJoin registers interest in the flight's result; it fails when the
// flight was already abandoned by every caller (its compute is dying), in
// which case the caller must start a fresh flight.
func (f *flight) tryJoin() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted {
		return false
	}
	f.waiters++
	return true
}

// leave drops one caller's interest; the last one out aborts the compute.
func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	if f.waiters == 0 && !f.aborted {
		f.aborted = true
		close(f.abort)
	}
	f.mu.Unlock()
}

// DefaultResultCacheBytes is the byte budget NewResultCache callers usually
// want: large enough for thousands of typical answer relations, small
// enough to never matter next to the EDB itself.
const DefaultResultCacheBytes = 64 << 20

// NewResultCache returns an empty cache with the given byte budget
// (DefaultResultCacheBytes when maxBytes <= 0), counting into its own
// isolated registry.
func NewResultCache(maxBytes int64) *ResultCache {
	return NewResultCacheWith(obs.NewRegistry(), maxBytes)
}

// NewResultCacheWith is NewResultCache with the counters and gauges living
// in reg under the dl_resultcache_* names.
func NewResultCacheWith(reg *obs.Registry, maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultCacheBytes
	}
	return &ResultCache{
		max:        maxBytes,
		entries:    make(map[resultKey]*list.Element),
		lru:        list.New(),
		flight:     make(map[resultKey]*flight),
		hits:       reg.Counter(mResultHits),
		misses:     reg.Counter(mResultMisses),
		evictions:  reg.Counter(mResultEvict),
		maintained: reg.Counter(mResultMaint),
		carried:    reg.Counter(mResultCarried),
		recomputed: reg.Counter(mResultRecomp),
		maintDur:   reg.Histogram(mResultMaintNs, nil),
		bytesG:     reg.Gauge(mResultBytes),
		entriesG:   reg.Gauge(mResultEntries),
	}
}

// Answer evaluates the query against the snapshot through the planner,
// serving a memoized answer when one exists for the snapshot's epoch. The
// bool result reports whether the answer came from the cache (including
// riding along on another caller's in-flight computation). A miss looks its
// plan up once. A fixpoint plan selects from the program's view at the epoch,
// or runs (one flight for every miss of the program) and leaves its fixpoint
// behind as the view; a selection reports the view's Stats under its own
// PlanInfo. Any other plan runs, its entry keeping the maintenance state.
func (c *ResultCache) Answer(pl *Planner, src Source, q ast.Query, snap *storage.Snapshot, opts Opts) (*storage.Relation, Stats, bool, error) {
	key := resultKey{program: programKey(src), query: q.String(), epoch: snap.Epoch()}
	rel, _, st, hit, err := c.do(key, q, true, opts.Abort, func(abort <-chan struct{}) (rel *storage.Relation, aux any, st Stats, err error) {
		o := opts
		o.Abort = abort
		p, planHit, err := pl.planFor(src, q, snap.DB(), o)
		if err != nil {
			return nil, nil, st, err
		}
		if p, _ = p.over(q, snap.DB(), false); !p.viewed() {
			rel, aux, st, err = p.run(nil, q, snap.DB(), o, sink{})
		} else {
			var viewHit bool
			vk := resultKey{program: key.program, epoch: key.epoch}
			_, aux, st, viewHit, err = c.do(vk, ast.Query{}, false, abort, func(abort <-chan struct{}) (_ *storage.Relation, vaux any, _ Stats, _ error) {
				o.Abort = abort
				rel, vaux, st, err = p.run(nil, q, snap.DB(), o, sink{})
				return nil, vaux, st, err
			})
			if viewHit && err == nil {
				v := aux.(*fixAux) // the empty query names only views
				rel, err = selectAnswers(v.rel(q.Atom.Pred, snap.DB()), q, snap.Syms())
			}
			aux, st.Plan = nil, p.planInfo()
		}
		if st.Plan != nil {
			st.Plan.CacheHit = planHit
		}
		return rel, aux, st, err
	})
	return rel, st, hit, err
}

// Lookup peeks at the cache for (program, query, epoch) without computing
// anything — the streaming path's hit check. A hit refreshes the entry's
// LRU position and counts as a cache hit; a miss counts nothing (the
// streaming caller evaluates without populating the cache, so it is not a
// "miss" the hit-rate should be charged for).
func (c *ResultCache) Lookup(program, query string, epoch uint64) (*storage.Relation, Stats, bool) {
	key := resultKey{program: program, query: query, epoch: epoch}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, Stats{}, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*resultEntry)
	c.mu.Unlock()
	c.hits.Inc()
	return e.rel, e.st, true
}

// do returns the cached entry for key, computing and inserting it on a miss;
// the bool reports a hit or a ride on another caller's flight. Concurrent
// calls with one key share one compute invocation: exactly one runs, the
// rest block until it finishes and return its result. Errors are returned to
// every waiter but never cached, so a transient failure is retried by the
// next caller. compute additionally returns the plan-specific maintenance
// state stored alongside the entry, which do hands back with the answers; a
// view's compute returns no relation.
//
// callerAbort, when non-nil, is THIS caller's cancellation: a blocked waiter
// unblocks with ErrCanceled, and the computing leader's evaluation is
// stopped only once every interested caller has given up — compute receives
// the flight's merged abort channel and must honor it (thread it into
// Opts.Abort).
func (c *ResultCache) do(key resultKey, q ast.Query, hasQuery bool, callerAbort <-chan struct{}, compute func(abort <-chan struct{}) (*storage.Relation, any, Stats, error)) (*storage.Relation, any, Stats, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*resultEntry)
		c.mu.Unlock()
		c.count(key, c.hits)
		return e.rel, e.aux, e.st, true, nil
	}
	if f, ok := c.flight[key]; ok && f.tryJoin() {
		c.mu.Unlock()
		c.count(key, c.hits)
		select {
		case <-f.done:
			return f.rel, f.aux, f.st, true, f.err
		case <-callerAbort:
			// Losing the race against a just-finished compute must not
			// discard a perfectly good answer.
			select {
			case <-f.done:
				return f.rel, f.aux, f.st, true, f.err
			default:
			}
			f.leave()
			return nil, nil, Stats{}, false, fmt.Errorf("eval: wait for in-flight result of %q: %w", key.query, ErrCanceled)
		}
	}
	f := &flight{done: make(chan struct{}), abort: make(chan struct{}), waiters: 1}
	c.flight[key] = f
	c.mu.Unlock()
	c.count(key, c.misses)

	// The leader's own caller disconnecting releases only the leader's
	// share of the flight: the watcher leaves, and the compute dies only if
	// no waiter joined meanwhile.
	if callerAbort != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-callerAbort:
				f.leave()
			case <-stop:
			}
		}()
	}

	// A panicking compute must not wedge the key: fail the flight so waiters
	// unblock with an error, unregister it, then let the panic continue.
	keep := false
	defer func() {
		r := recover()
		if r != nil {
			f.rel, f.aux, f.err = nil, nil, fmt.Errorf("eval: result compute for %q panicked: %v", key.query, r)
		}
		close(f.done)
		c.mu.Lock()
		if c.flight[key] == f {
			delete(c.flight, key)
		}
		if keep {
			c.insertLocked(&resultEntry{key: key, rel: f.rel, st: f.st, q: q, hasQuery: hasQuery, aux: f.aux})
		}
		c.mu.Unlock()
		if r != nil {
			panic(r)
		}
	}()
	f.rel, f.aux, f.st, f.err = compute(f.abort)
	if keep = f.err == nil && (f.rel != nil || f.aux != nil); keep {
		// Freeze before publication: waiters and future hits may read the
		// relation (and the maintenance state) from any number of goroutines.
		if f.rel != nil {
			f.rel.Freeze()
		}
		freezeAux(f.aux)
	}
	return f.rel, f.aux, f.st, false, f.err
}

// count records a query's hit or miss; a view's lookups are part of the
// query that made them and count nothing.
func (c *ResultCache) count(key resultKey, n *obs.Counter) {
	if key.query != "" {
		n.Inc()
	}
}

// insertLocked adds the entry and evicts from the LRU tail until the byte
// budget holds again (the newest entry itself is never evicted, so one
// oversized answer is still served and cached). Caller holds c.mu.
func (c *ResultCache) insertLocked(e *resultEntry) {
	if _, ok := c.entries[e.key]; ok {
		return // a racing compute of the same key beat us; keep the first
	}
	e.size = auxBytes(e.aux) + int64(len(e.key.program)+len(e.key.query)) + 96
	if e.rel != nil {
		e.size += e.rel.SizeBytes()
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.max && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back())
		c.evictions.Inc()
	}
	c.bytesG.Set(c.bytes)
	c.entriesG.Set(int64(c.lru.Len()))
}

// removeLocked drops the entry and its charge. Caller holds c.mu.
func (c *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*resultEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the summed size charge of the cached entries.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Metrics returns the cumulative hit, miss and eviction counts.
func (c *ResultCache) Metrics() (hits, misses, evictions uint64) {
	return uint64(c.hits.Value()), uint64(c.misses.Value()), uint64(c.evictions.Value())
}
