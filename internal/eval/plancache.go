package eval

import (
	"strings"
	"sync"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Planner caches compiled plans per (program, adornment, snapshot epoch) so
// that repeated queries skip classification and rewriting entirely. The key
// is the canonical rule text of the system plus the query's d/v adornment
// string: any change to the rule set yields a different key, so stale plans
// can never be served for a modified program (invalidation by construction).
// The serving path (the result cache's lookups on a pinned snapshot, behind
// dlserve) additionally keys by the snapshot epoch the query pins: entries
// of epochs that have aged out of a small window behind the newest seen
// epoch are pruned automatically on insert, so a long-lived server's cache
// stays bounded without anyone ever having to remember to invalidate.
// Epoch 0 — the epochless key every non-snapshot caller uses — is never
// pruned, preserving the PR-2 behavior for tools that evaluate one
// database forever. Cached plans are immutable, so any number of
// goroutines may call Answer concurrently.
//
// Hit, miss and invalidation counts live in an obs.Registry (the
// dl_plancache_*_total counters), so a planner wired to the default registry
// surfaces its cache behavior on /metrics (invalidations now counts
// automatic epoch prunes). Metrics and Reset work against per-planner
// baselines: Reset re-bases the planner's view while the registry counters
// stay monotonic, as Prometheus-style counters must.
type Planner struct {
	mu       sync.RWMutex
	plans    map[planKey]*Plan
	maxEpoch uint64

	hits, misses, invalidations       *obs.Counter
	baseHits, baseMisses, baseInvalid int64
}

type planKey struct {
	program string
	adorn   string
	epoch   uint64
	// stats is the database's statistics epoch (Database.StatsEpoch) at
	// compile time. Plans now carry a cost-based order book computed from
	// column statistics, so the key must change when the statistics do —
	// otherwise a CompactIndexes (or any index rebuild) could leave a
	// cached plan serving join orders chosen for data that no longer
	// exists. Entries with an older stats value under the same
	// (program, adornment, epoch) are pruned on insert. 0 for bookless
	// callers (no database at plan time).
	stats uint64
}

// planEpochWindow is how many epochs behind the newest seen epoch a cached
// plan survives. Readers pin snapshots a few epochs old at most (a request
// holds its snapshot only for its own duration), so a small window keeps
// concurrent old-epoch readers hitting while bounding the cache.
const planEpochWindow = 4

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

// programKey renders the system's canonical rule text: the recursive rule
// followed by the exit rules in order.
func programKey(sys *ast.RecursiveSystem) string {
	var b strings.Builder
	b.WriteString(sys.Recursive.String())
	for _, e := range sys.Exits {
		b.WriteByte('\n')
		b.WriteString(e.String())
	}
	return b.String()
}

// SystemKey returns the cache key text a recursive system's results are
// memoized under — the same canonical rule rendering ResultCache.Answer
// keys by. Servers use it to peek at the cache (ResultCache.Lookup) before
// choosing a streaming evaluation.
func SystemKey(sys *ast.RecursiveSystem) string { return programKey(sys) }

// PlanFor returns the cached plan for the system and query form, compiling
// and inserting it on a miss. The second result reports a cache hit.
func (pl *Planner) PlanFor(sys *ast.RecursiveSystem, q ast.Query) (*Plan, bool, error) {
	return pl.PlanForOpts(sys, q, Opts{})
}

// PlanForOpts is PlanFor with instrumentation: the lookup is recorded under
// a "plan-cache" span (result=hit|miss) and a miss compiles under the
// classify/plan-compile spans of CompilePlanOpts. Plans compiled this way
// carry no order book (there is no database to read statistics from); the
// serving path uses PlanForEpoch.
func (pl *Planner) PlanForOpts(sys *ast.RecursiveSystem, q ast.Query, opts Opts) (*Plan, bool, error) {
	return pl.planFor(sys, q, 0, nil, opts)
}

// PlanForEpoch is PlanForOpts keyed additionally by a snapshot epoch and the
// database's statistics epoch — the serving path's lookup. db (the pinned
// snapshot's view) supplies the column statistics the plan's join orders
// are compiled from; nil db compiles a bookless plan under stats key 0.
// Entries of epochs far behind the newest seen epoch are pruned
// automatically (see Planner), and so are entries whose statistics went
// stale under the same program/adornment/epoch.
func (pl *Planner) PlanForEpoch(sys *ast.RecursiveSystem, q ast.Query, epoch uint64, db *storage.Database, opts Opts) (*Plan, bool, error) {
	return pl.planFor(sys, q, epoch, db, opts)
}

func (pl *Planner) planFor(sys *ast.RecursiveSystem, q ast.Query, epoch uint64, db *storage.Database, opts Opts) (*Plan, bool, error) {
	key := planKey{program: programKey(sys), adorn: adorn.FromQuery(q).String(), epoch: epoch}
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
	p, err := CompilePlanDB(sys, db, queryBound(q), opts)
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
		pl.pruneLocked(epoch)
		pl.pruneStatsLocked(key)
	}
	pl.mu.Unlock()
	return p, false, nil
}

// queryBound flags the query's constant argument positions — the adorned
// "bound" columns CompilePlanDB pre-binds when costing a bounded plan's
// expansion rules.
func queryBound(q ast.Query) []bool {
	bound := make([]bool, len(q.Atom.Args))
	for i, t := range q.Atom.Args {
		bound[i] = !t.IsVar()
	}
	return bound
}

// pruneLocked ages out entries whose epoch fell behind the newest seen
// epoch by more than planEpochWindow. Epoch-0 (epochless) entries are kept.
// Caller holds the write lock.
func (pl *Planner) pruneLocked(epoch uint64) {
	if epoch <= pl.maxEpoch {
		return
	}
	pl.maxEpoch = epoch
	n := 0
	for k := range pl.plans {
		if k.epoch != 0 && k.epoch+planEpochWindow <= pl.maxEpoch {
			delete(pl.plans, k)
			n++
		}
	}
	if n > 0 {
		pl.invalidations.Add(int64(n))
	}
}

// pruneStatsLocked drops entries that differ from the just-inserted key
// only by an older statistics epoch: their join orders were compiled from
// statistics that no longer describe the data, and no future lookup can hit
// them (lookups always use the current stats epoch). Caller holds the write
// lock.
func (pl *Planner) pruneStatsLocked(key planKey) {
	n := 0
	for k := range pl.plans {
		if k.program == key.program && k.adorn == key.adorn && k.epoch == key.epoch && k.stats < key.stats {
			delete(pl.plans, k)
			n++
		}
	}
	if n > 0 {
		pl.invalidations.Add(int64(n))
	}
}

// Answer evaluates the query through the cached plan (compiling it on the
// first use of this program and query form). Stats.Plan reports the class,
// the chosen strategy and whether the plan came from the cache.
func (pl *Planner) Answer(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database) (*storage.Relation, Stats, error) {
	return pl.AnswerOpts(sys, q, db, Opts{})
}

// AnswerOpts is Answer with instrumentation threaded through the plan lookup
// and the compiled path's engine.
func (pl *Planner) AnswerOpts(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	p, hit, err := pl.planFor(sys, q, 0, db, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	rel, st, err := p.AnswerOpts(q, db, opts)
	if err != nil {
		return nil, st, err
	}
	if st.Plan != nil {
		st.Plan.CacheHit = hit
	}
	return rel, st, err
}

// answerSnapAux answers the query against a pinned snapshot, keying the plan
// lookup by (program, adornment, epoch), and additionally returns the plan's
// maintenance state (see Plan.answerAux) for the result cache to store with
// the entry. Safe for any number of concurrent callers sharing the snapshot:
// the snapshot view is immutable and cached plans are immutable.
func (pl *Planner) answerSnapAux(sys *ast.RecursiveSystem, q ast.Query, snap *storage.Snapshot, opts Opts) (*storage.Relation, any, Stats, error) {
	p, hit, err := pl.planFor(sys, q, snap.Epoch(), snap.DB(), opts)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	rel, aux, st, err := p.answerAux(q, snap.DB(), opts)
	if err != nil {
		return nil, nil, st, err
	}
	if st.Plan != nil {
		st.Plan.CacheHit = hit
	}
	return rel, aux, st, nil
}

// Metrics returns the hit and miss counters accumulated since the planner
// was created or last Reset.
func (pl *Planner) Metrics() (hits, misses uint64) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return uint64(pl.hits.Value() - pl.baseHits), uint64(pl.misses.Value() - pl.baseMisses)
}

// Invalidations returns the number of plans dropped by the automatic epoch
// and statistics prunes since the planner was created or last Reset.
func (pl *Planner) Invalidations() uint64 {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return uint64(pl.invalidations.Value() - pl.baseInvalid)
}

// Len returns the number of cached plans.
func (pl *Planner) Len() int {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return len(pl.plans)
}

// Reset empties the cache and zeroes the planner's view of the counters.
// The underlying registry counters are never decremented (scrapes must see
// them monotonic); Reset only moves the baselines Metrics subtracts.
func (pl *Planner) Reset() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.plans = make(map[planKey]*Plan)
	pl.baseHits = pl.hits.Value()
	pl.baseMisses = pl.misses.Value()
	pl.baseInvalid = pl.invalidations.Value()
}
