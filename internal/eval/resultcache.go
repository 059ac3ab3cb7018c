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
// snapshot epoch). Bounded and stable formulas compile to fixed-depth plans
// whose answers depend only on the database state, which the snapshot epoch
// names exactly — so a cached answer can never be stale: a write advances
// the epoch and the old entries simply stop being asked for, aging out of
// the LRU. Entries are charged against a byte budget (Relation.SizeBytes
// plus key overhead, plus the maintenance state the entry keeps: a TC
// entry's own visited set and private exit copy per entry, a program's
// shared fixpoint once for all the entries holding it) and evicted
// least-recently-used.
//
// Maintain (maintain.go) carries the previous epoch's entries forward to the
// new epoch by running a delta pass over only the inserted tuples, falling
// back to a full recompute when the delta is not expressible.
//
// Concurrent identical queries are deduplicated singleflight-style: the
// first caller computes while the rest block on its result, so N identical
// cold queries trigger exactly one fixpoint. A panicking compute fails its
// flight (waiters get an error, the key stays usable) and re-panics in the
// computing goroutine. Cached relations are frozen
// (storage.Relation.Freeze) before publication, so any number of readers
// may probe and iterate them concurrently; callers must not mutate them
// (a mutation attempt panics).
//
// Hit, miss and eviction counts live in an obs.Registry under the
// dl_resultcache_{hits,misses,evictions}_total names; the current byte and
// entry footprints are the dl_resultcache_{bytes,entries} gauges; the
// maintenance pass counts entries into
// dl_resultcache_{maintained,carried,recomputed}_total (carried: the
// maintained entries re-keyed with their relation untouched) and its
// wall-clock into the dl_resultcache_maintenance_seconds histogram.
type ResultCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[resultKey]*list.Element
	lru     *list.List // front = most recently used
	flight  map[resultKey]*flight
	// fixRefs counts the entries holding each shared fixpoint state, which is
	// charged to bytes once, while the count is positive.
	fixRefs map[*fixAux]int

	hits, misses, evictions         *obs.Counter
	maintained, carried, recomputed *obs.Counter
	maintDur                        *obs.Histogram
	bytesG, entriesG                *obs.Gauge
}

type resultKey struct {
	program string
	query   string
	epoch   uint64
}

type resultEntry struct {
	key  resultKey
	rel  *storage.Relation
	st   Stats
	size int64
	// q is the parsed query (valid when hasQuery), kept so Maintain can
	// re-plan and re-answer the entry at a later epoch. Do-keyed entries
	// have no parsed query and are never maintained.
	q        ast.Query
	hasQuery bool
	// aux is the plan-class-specific maintenance state captured at compute
	// time (maintain.go): *tcAux for TC plans, *fixAux for fixpoint plans,
	// nil when the plan keeps none (bounded plans need only the answers).
	aux any
}

// flight is one in-progress computation other callers of the same key wait
// on. rel/st/err are written once before done closes.
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
		fixRefs:    make(map[*fixAux]int),
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
// riding along on another caller's in-flight computation). The entry keeps
// the plan's maintenance state, so Maintain can carry it across writes.
func (c *ResultCache) Answer(pl *Planner, src Source, q ast.Query, snap *storage.Snapshot, opts Opts) (*storage.Relation, Stats, bool, error) {
	key := resultKey{program: programKey(src), query: q.String(), epoch: snap.Epoch()}
	return c.do(key, q, true, opts.Abort, func(abort <-chan struct{}) (*storage.Relation, any, Stats, error) {
		o := opts
		o.Abort = abort
		return pl.answer(src, q, snap.DB(), o)
	})
}

// Do returns the cached answer for (program, query, epoch), computing and
// inserting it on a miss. Concurrent Do calls with the same key share one
// compute invocation: exactly one runs, the rest block until it finishes
// and return its result. Errors are returned to every waiter but never
// cached, so a transient failure is retried by the next caller.
//
// abort, when non-nil, is THIS caller's cancellation: a blocked waiter
// unblocks with ErrCanceled, and the computing leader's evaluation is
// stopped only once every interested caller has given up — compute receives
// the flight's merged abort channel and must honor it (thread it into
// Opts.Abort).
func (c *ResultCache) Do(abort <-chan struct{}, program, query string, epoch uint64, compute func(abort <-chan struct{}) (*storage.Relation, Stats, error)) (*storage.Relation, Stats, bool, error) {
	key := resultKey{program: program, query: query, epoch: epoch}
	return c.do(key, ast.Query{}, false, abort, func(fa <-chan struct{}) (*storage.Relation, any, Stats, error) {
		rel, st, err := compute(fa)
		return rel, nil, st, err
	})
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

// do is the shared hit/flight/compute path. compute additionally returns
// the plan-specific maintenance state stored alongside the entry.
func (c *ResultCache) do(key resultKey, q ast.Query, hasQuery bool, callerAbort <-chan struct{}, compute func(abort <-chan struct{}) (*storage.Relation, any, Stats, error)) (*storage.Relation, Stats, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*resultEntry)
		c.mu.Unlock()
		c.hits.Inc()
		return e.rel, e.st, true, nil
	}
	if f, ok := c.flight[key]; ok && f.tryJoin() {
		c.mu.Unlock()
		c.hits.Inc()
		select {
		case <-f.done:
			return f.rel, f.st, true, f.err
		case <-callerAbort:
			// Losing the race against a just-finished compute must not
			// discard a perfectly good answer.
			select {
			case <-f.done:
				return f.rel, f.st, true, f.err
			default:
			}
			f.leave()
			return nil, Stats{}, false, fmt.Errorf("eval: wait for in-flight result of %q: %w", key.query, ErrCanceled)
		}
	}
	f := &flight{done: make(chan struct{}), abort: make(chan struct{}), waiters: 1}
	c.flight[key] = f
	c.mu.Unlock()
	c.misses.Inc()

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

	var aux any
	// A panicking compute must not wedge the key: fail the flight so waiters
	// unblock with an error, unregister it, then let the panic continue.
	defer func() {
		if r := recover(); r != nil {
			f.rel, f.err = nil, fmt.Errorf("eval: result compute for %q panicked: %v", key.query, r)
			close(f.done)
			c.unregisterFlight(key, f)
			panic(r)
		}
	}()
	f.rel, aux, f.st, f.err = compute(f.abort)
	if f.err == nil && f.rel != nil {
		// Freeze before publication: waiters and future hits may read the
		// relation (and the maintenance state) from any number of goroutines.
		f.rel.Freeze()
		freezeAux(aux)
	}
	close(f.done)

	c.mu.Lock()
	if cur, ok := c.flight[key]; ok && cur == f {
		delete(c.flight, key)
	}
	if f.err == nil && f.rel != nil {
		c.insertLocked(&resultEntry{key: key, rel: f.rel, st: f.st, q: q, hasQuery: hasQuery, aux: aux})
	}
	c.mu.Unlock()
	return f.rel, f.st, false, f.err
}

// unregisterFlight removes f from the flight table unless a successor
// flight already replaced it (an aborted flight's key is reusable before
// its dying compute returns).
func (c *ResultCache) unregisterFlight(key resultKey, f *flight) {
	c.mu.Lock()
	if cur, ok := c.flight[key]; ok && cur == f {
		delete(c.flight, key)
	}
	c.mu.Unlock()
}

// insertLocked adds the entry and evicts from the LRU tail until the byte
// budget holds again (the newest entry itself is never evicted, so one
// oversized answer is still served and cached). Caller holds c.mu.
func (c *ResultCache) insertLocked(e *resultEntry) {
	if _, ok := c.entries[e.key]; ok {
		return // a racing compute of the same key beat us; keep the first
	}
	e.size = e.rel.SizeBytes() + privateBytes(e.aux) + int64(len(e.key.program)+len(e.key.query)) + 96
	if a, ok := e.aux.(*fixAux); ok {
		if c.fixRefs[a]++; c.fixRefs[a] == 1 {
			c.bytes += a.sizeBytes()
		}
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

// removeLocked drops the entry and its charge, and a shared fixpoint state's
// with its last holder. Caller holds c.mu.
func (c *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*resultEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	if a, ok := e.aux.(*fixAux); ok {
		if c.fixRefs[a]--; c.fixRefs[a] == 0 {
			delete(c.fixRefs, a)
			c.bytes -= a.sizeBytes()
		}
	}
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
