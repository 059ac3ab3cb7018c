package eval

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// ErrCanceled is returned by an evaluation whose Opts.Abort channel closed
// before the fixpoint finished. Engines poll the channel at round
// boundaries (and the streaming kernels additionally on every blocked tuple
// emission), so cancellation latency is one round, never the whole
// fixpoint. Test with errors.Is: engines wrap it with context.
var ErrCanceled = errors.New("eval: evaluation canceled")

// Opts configures evaluation for every strategy. The zero value is the
// uninstrumented default: no tracing (nil Tracer keeps the hot paths
// allocation-free — every obs method no-ops on nil) and metrics flushed to
// the process-wide obs.Default() registry at evaluation granularity. The
// round driver's pool is GOMAXPROCS workers.
type Opts struct {
	// Tracer, when non-nil, receives the evaluation's hierarchical spans
	// (fixpoint → round → per-rule join, plus classify/plan-compile from
	// the auto planner).
	Tracer *obs.Tracer
	// Parent, when non-nil, is the span the evaluation's spans attach
	// under; otherwise they attach under the tracer root. Lets a CLI give
	// each query its own subtree.
	Parent *obs.Span
	// Metrics is the registry receiving the evaluation's counters and
	// histograms; nil means obs.Default().
	Metrics *obs.Registry
	// Abort, when non-nil, cancels the evaluation when it closes: engines
	// poll it at round boundaries and return ErrCanceled instead of a
	// result. The serving layer wires it to the HTTP request context so a
	// disconnected client stops burning CPU, and the streaming iterators
	// close it from Close(). Nil (the zero value) never cancels and costs
	// one nil-channel select per round.
	Abort <-chan struct{}
	// book, when non-nil, is the compiled join-order book the evaluation
	// uses instead of the per-step greedy ordering (set by the auto planner
	// from its cached Plan; the explicitly invoked engines run greedy, which
	// keeps them exact ablation baselines). Unexported: Opts is passed by
	// value everywhere, so plans can attach it without callers forging one.
	book *orderBook
	// workers overrides the round driver's pool size (0 = GOMAXPROCS). Only
	// SemiNaiveOpts (one worker) and the in-package determinism tests set
	// it, the tests to run one evaluation on several pool sizes.
	workers int
}

// canceled reports whether the abort channel has closed. Engines call it at
// round boundaries; on a nil Abort it is a single non-blocking select.
func (o Opts) canceled() bool {
	select {
	case <-o.Abort:
		return true
	default:
		return false
	}
}

// parent returns the span new engine spans attach under (nil when
// untraced).
func (o Opts) parent() *obs.Span {
	if o.Parent != nil {
		return o.Parent
	}
	return o.Tracer.Root()
}

// registry returns the metrics destination.
func (o Opts) registry() *obs.Registry {
	if o.Metrics != nil {
		return o.Metrics
	}
	return obs.Default()
}

// Metric names of the process-wide registry (documented in DESIGN.md §9).
const (
	mEvaluations   = "dl_evaluations_total"
	mRounds        = "dl_rounds_total"
	mDerived       = "dl_tuples_derived_total"
	mAttempted     = "dl_tuples_attempted_total"
	mDedupProbes   = "dl_dedup_probes_total"
	mDedupDups     = "dl_dedup_duplicates_total"
	mDedupColls    = "dl_dedup_collisions_total"
	mArenaBytes    = "dl_arena_bytes_total"
	mTableGrows    = "dl_hash_table_grows_total"
	mCSRBuilds     = "dl_csr_builds_total"
	mPlanHits      = "dl_plancache_hits_total"
	mPlanMisses    = "dl_plancache_misses_total"
	mPlanInvalid   = "dl_plancache_invalidations_total"
	mResultHits    = "dl_resultcache_hits_total"
	mResultMisses  = "dl_resultcache_misses_total"
	mResultEvict   = "dl_resultcache_evictions_total"
	mResultBytes   = "dl_resultcache_bytes"
	mResultEntries = "dl_resultcache_entries"
	mResultMaint   = "dl_resultcache_maintained_total"
	mResultRecomp  = "dl_resultcache_recomputed_total"
	mResultCarried = "dl_resultcache_carried_total"
	mResultMaintNs = "dl_resultcache_maintenance_seconds"
	mRoundDur      = "dl_round_duration_seconds"
	mWorkerUtil    = "dl_worker_utilization"
	mStratumRounds = "dl_rounds_per_stratum"
)

// utilBuckets covers the [0, 1] worker-utilization ratio.
var utilBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// stratumBuckets counts rounds per stratum (small integers, heavy tail).
var stratumBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// metricSet holds the per-round histograms pre-resolved once per
// evaluation, so round emission costs no registry lookups.
type metricSet struct {
	roundDur      *obs.Histogram
	util          *obs.Histogram
	stratumRounds *obs.Histogram
}

func (o Opts) metricSet() *metricSet {
	reg := o.registry()
	return &metricSet{
		roundDur:      reg.Histogram(mRoundDur, nil),
		util:          reg.Histogram(mWorkerUtil, utilBuckets),
		stratumRounds: reg.Histogram(mStratumRounds, stratumBuckets),
	}
}

// roundSink fans one fixpoint round out to every consumer: Stats.Trace, one
// span per round under the engine's fixpoint span, and the round-granularity
// histograms. The zero value is a valid sink that records nothing
// (maintenance passes run on it); engines call begin at round start and end
// exactly once per round.
type roundSink struct {
	st   *Stats
	fix  *obs.Span // fixpoint span, parent of the round spans; nil untraced
	ms   *metricSet
	t0   time.Time
	span *obs.Span // current round span
}

func newRoundSink(st *Stats, o Opts, fix *obs.Span) roundSink {
	return roundSink{st: st, fix: fix, ms: o.metricSet()}
}

// begin marks the start of a round (timing plus the round span).
func (rs *roundSink) begin() {
	rs.t0 = time.Now()
	rs.span = rs.fix.Child("round")
}

// traced reports whether the current round has a live span. Callers check
// it before building span attribute strings (e.g. rule.String()) so the
// untraced path never allocates.
func (rs *roundSink) traced() bool { return rs.span != nil }

// rule opens a per-rule join span inside the current round, or returns nil
// when untraced — callers chain attribute setters and End on the result
// unconditionally.
func (rs *roundSink) rule(name string) *obs.Span {
	if rs.span == nil {
		return nil
	}
	return rs.span.Child("join").SetStr("rule", name)
}

// end completes the round: fills the duration when the engine did not
// measure one itself, appends to Stats.Trace, closes the round span and
// feeds the histograms.
func (rs *roundSink) end(r RoundStats) {
	if rs.st == nil {
		return
	}
	if r.Duration == 0 {
		r.Duration = time.Since(rs.t0)
	}
	rs.st.Trace = append(rs.st.Trace, r)
	if s := rs.span; s != nil {
		s.SetInt("round", int64(r.Round))
		s.SetInt("stratum", int64(r.Stratum))
		s.SetInt("delta", int64(r.Delta))
		s.SetInt("derived", int64(r.Derived))
		s.SetInt("attempted", int64(r.Attempted))
		if r.Tasks > 0 {
			s.SetInt("tasks", int64(r.Tasks))
		}
		if r.Workers > 0 {
			s.SetInt("workers", int64(r.Workers))
		}
		if r.Estimated > 0 || r.Visited > 0 {
			s.SetInt("estimated", r.Estimated)
			s.SetInt("visited", r.Visited)
		}
		s.End()
		rs.span = nil
	}
	if rs.ms != nil {
		rs.ms.roundDur.Observe(r.Duration.Seconds())
		if r.Workers > 0 {
			rs.ms.util.Observe(r.Utilization())
		}
	}
}

// stratumDone records how many rounds the just-saturated stratum took.
func (rs *roundSink) stratumDone(rounds int) {
	if rs.ms != nil && rounds > 0 {
		rs.ms.stratumRounds.Observe(float64(rounds))
	}
}

// flushRels adds the evaluation's logical counters plus the storage
// write-path counters of the given relations to the registry. Called once
// per evaluation — never from a hot loop.
func flushRels(o Opts, st *Stats, rels ...*storage.Relation) {
	reg := o.registry()
	reg.Counter(mEvaluations).Inc()
	reg.Counter(mRounds).Add(int64(st.Rounds))
	reg.Counter(mDerived).Add(int64(st.Derived))
	reg.Counter(mAttempted).Add(int64(st.Facts))
	var sum storage.RelStats
	for _, r := range rels {
		if r != nil {
			sum = sum.Add(r.Stats())
		}
	}
	reg.Counter(mDedupProbes).Add(sum.Probes)
	reg.Counter(mDedupDups).Add(sum.Duplicates)
	reg.Counter(mDedupColls).Add(sum.Collisions)
	reg.Counter(mArenaBytes).Add(sum.ArenaBytes)
	reg.Counter(mTableGrows).Add(sum.TableGrows)
	reg.Counter(mCSRBuilds).Add(sum.IndexBuilds)
}

// flushDB is flushRels over the IDB relations an engine materialized in its
// working database (the relations it owns — EDB relations are shared with
// the caller and excluded so their insert history is not re-counted).
func flushDB(o Opts, st *Stats, work *storage.Database, idb map[string]bool) {
	rels := make([]*storage.Relation, 0, len(idb))
	for pred := range idb {
		rels = append(rels, work.Rel(pred))
	}
	flushRels(o, st, rels...)
}
