package eval

import (
	"strings"
	"sync"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Planner caches compiled plans per (program, adornment, statistics epoch)
// so that repeated queries skip classification, rewriting and the join-order
// search entirely. The program part is the canonical rule text: any change
// to the rule set yields a different key, so a stale plan can never be
// served for a modified program (invalidation by construction). The
// adornment part is the query's d/v binding pattern, which the bounded
// path's order book depends on. The statistics part is the plan database's
// Database.StatsEpoch at compile time: the order book is the only thing in
// a Plan that reads the data, and it reads only column statistics, which
// move when a database relation's index rebuild does (a relation outgrowing
// its last build by half — colIndex.stale — or its first BuildIndexes). The
// snapshot epoch is deliberately not part of the key: a write that leaves
// the statistics alone leaves every plan valid, so the next query and the
// maintenance pass both hit. An insert under a newer statistics epoch drops
// the older entry of the same (program, adornment), which bounds the cache
// at one plan per pair. Cached plans are immutable, so any number of
// goroutines may use them concurrently.
//
// Hit, miss and invalidation counts live in an obs.Registry (the
// dl_plancache_*_total counters), so a planner wired to the default registry
// surfaces its cache behavior on /metrics; invalidations counts the plans
// dropped for stale statistics.
type Planner struct {
	mu    sync.RWMutex
	plans map[planKey]*Plan

	hits, misses, invalidations *obs.Counter
}

type planKey struct {
	program string
	adorn   string
	// stats is the database's statistics epoch (Database.StatsEpoch) at
	// compile time; 0 for bookless callers (no database at plan time).
	stats uint64
}

// NewPlanner returns an empty plan cache with isolated counters (its own
// registry), so per-tool hit/miss accounting never mixes with the
// process-wide registry.
func NewPlanner() *Planner {
	return NewPlannerWith(obs.NewRegistry())
}

// NewPlannerWith returns an empty plan cache whose counters live in reg
// under the dl_plancache_*_total names.
func NewPlannerWith(reg *obs.Registry) *Planner {
	return &Planner{
		plans:         make(map[planKey]*Plan),
		hits:          reg.Counter(mPlanHits),
		misses:        reg.Counter(mPlanMisses),
		invalidations: reg.Counter(mPlanInvalid),
	}
}

// DefaultPlanner backs StrategyAuto; its counters live in obs.Default() so
// dlrun/dlbench -serve expose them. Tools that want isolated hit/miss
// accounting create their own Planner.
var DefaultPlanner = NewPlannerWith(obs.Default())

// programKey renders the source's canonical rule text: for a recursive
// system the recursive rule followed by the exit rules in order, for a
// program its rules (and facts) as given.
func programKey(src Source) string {
	sys, ok := src.(*ast.RecursiveSystem)
	if !ok {
		return src.Program().String()
	}
	var b strings.Builder
	b.WriteString(sys.Recursive.String())
	for _, e := range sys.Exits {
		b.WriteByte('\n')
		b.WriteString(e.String())
	}
	return b.String()
}

// SystemKey returns the cache key text a source's results are memoized
// under — the same canonical rule rendering ResultCache.Answer keys by.
// Servers use it to peek at the cache (ResultCache.Lookup) before choosing a
// streaming evaluation.
func SystemKey(src Source) string { return programKey(src) }

// PlanForEpoch returns the cached plan for the source and query form,
// compiling and inserting it on a miss; the second result reports a cache
// hit. db (the pinned snapshot's view) supplies the column statistics the
// plan's join orders are compiled from; nil db compiles a bookless plan under
// stats key 0. The lookup is recorded under a "plan-cache" span
// (result=hit|miss) and a miss compiles under the classify/plan-compile spans
// of CompilePlanOpts. The epoch parameter is unused — plans are not keyed by
// snapshot epoch — and stays in the signature only for bench/twin.go:158,190
// (frozen by BENCHMARK.json) until the next benchmark PR.
func (pl *Planner) PlanForEpoch(src Source, q ast.Query, _ uint64, db *storage.Database, opts Opts) (*Plan, bool, error) {
	return pl.planFor(src, q, db, opts)
}

func (pl *Planner) planFor(src Source, q ast.Query, db *storage.Database, opts Opts) (*Plan, bool, error) {
	bound := adorn.FromQuery(q)
	key := planKey{program: programKey(src), adorn: bound.String()}
	if db != nil {
		key.stats = db.StatsEpoch()
	}
	sp := opts.parent().Child("plan-cache").SetStr("adorn", key.adorn)
	pl.mu.RLock()
	p, ok := pl.plans[key]
	pl.mu.RUnlock()
	if ok {
		pl.hits.Inc()
		sp.SetStr("result", "hit").End()
		return p, true, nil
	}
	sp.SetStr("result", "miss").End()
	p, err := CompilePlanDB(src, db, bound, opts)
	pl.misses.Inc()
	if err != nil {
		return nil, false, err
	}
	pl.mu.Lock()
	// A concurrent compiler may have raced us here; keep the first entry so
	// callers holding it stay coherent with the cache.
	if prev, ok := pl.plans[key]; ok {
		p = prev
	} else {
		pl.plans[key] = p
		pl.pruneStatsLocked(key)
	}
	pl.mu.Unlock()
	return p, false, nil
}

// pruneStatsLocked drops entries that differ from the just-inserted key
// only by an older statistics epoch: their join orders were compiled from
// statistics that no longer describe the data, and no future lookup can hit
// them (lookups always use the current stats epoch). Caller holds the write
// lock.
func (pl *Planner) pruneStatsLocked(key planKey) {
	n := 0
	for k := range pl.plans {
		if k.program == key.program && k.adorn == key.adorn && k.stats < key.stats {
			delete(pl.plans, k)
			n++
		}
	}
	if n > 0 {
		pl.invalidations.Add(int64(n))
	}
}

// AnswerOpts evaluates the query through the cached plan (compiling it on
// the first use of this program and query form). Stats.Plan reports the
// class, the chosen strategy and whether the plan came from the cache.
func (pl *Planner) AnswerOpts(src Source, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	p, hit, err := pl.planFor(src, q, db, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	rel, st, err := p.AnswerOpts(q, db, opts)
	if st.Plan != nil {
		st.Plan.CacheHit = hit
	}
	return rel, st, err
}

// Metrics returns the hit and miss counters accumulated since the planner
// was created.
func (pl *Planner) Metrics() (hits, misses uint64) {
	return uint64(pl.hits.Value()), uint64(pl.misses.Value())
}

// Invalidations returns the number of plans dropped for stale statistics
// since the planner was created.
func (pl *Planner) Invalidations() uint64 {
	return uint64(pl.invalidations.Value())
}

// Len returns the number of cached plans.
func (pl *Planner) Len() int {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return len(pl.plans)
}
