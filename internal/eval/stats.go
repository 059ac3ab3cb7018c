package eval

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Stats accumulates work counters so the benchmarks can report logical cost
// alongside wall-clock time.
type Stats struct {
	// Rounds is the number of fixpoint iterations (or expansion depths).
	Rounds int
	// Derived is the number of new tuples inserted by rule evaluation.
	// For the bottom-up engines this equals the growth of the IDB over the
	// prepared database: program facts are seeded, not derived.
	Derived int
	// Facts is the number of tuple insertions attempted (including
	// duplicates) — the naive evaluator's wasted-rederivation measure.
	Facts int
	// Trace holds one record per fixpoint round, in round order; every
	// engine fills it.
	Trace []RoundStats
	// Plan reports the auto planner's decision when the query went through
	// StrategyAuto (or a Planner directly); nil for the explicit engines.
	Plan *PlanInfo
	// Maintained reports that the answer was carried forward across a write
	// by the result cache's incremental maintenance pass (a delta fixpoint
	// over the inserted tuples) instead of being recomputed from scratch.
	Maintained bool
	// Truncated reports that a streaming evaluation stopped early — the
	// consumer's limit was satisfied before the answer set was exhausted, so
	// Rounds/Derived/Facts measure only the work actually done, not the full
	// evaluation's cost.
	Truncated bool
	// Visited counts the intermediate tuples the conjunction enumerations
	// pulled from index postings or scans — the join-order work measure the
	// cost planner estimates (Facts counts only completed derivations; a bad
	// join order does its damage before the head is ever reached).
	Visited int64
}

func (s Stats) String() string {
	base := fmt.Sprintf("rounds=%d derived=%d attempted=%d", s.Rounds, s.Derived, s.Facts)
	if s.Visited > 0 {
		base += fmt.Sprintf(" visited=%d", s.Visited)
	}
	if s.Plan != nil {
		base += " " + s.Plan.String()
	}
	return base
}

// FillJournal copies the evaluation-side facts of one answered query into
// a journal record: fixpoint counters, maintenance and truncation flags,
// and the auto planner's class/strategy decision.
// The serving layer owns the request-side fields (ID, query text, epoch,
// timings, rows, error class) — this split keeps the journal schema in one
// place while letting eval stay the source of truth for what an
// evaluation did.
func (s Stats) FillJournal(rec *obs.QueryRecord) {
	rec.Rounds = s.Rounds
	rec.Derived = s.Derived
	rec.Visited = s.Visited
	rec.Maintained = s.Maintained
	rec.Truncated = s.Truncated
	if s.Plan != nil {
		rec.Class = s.Plan.Class
		rec.Strategy = s.Plan.Strategy
		rec.Cost = s.Plan.Cost
	}
}

// PlanInfo describes the outcome of classification-driven planning for one
// evaluated query.
type PlanInfo struct {
	// Class is the paper's classification code (A1–A5, B, C, D, E, F); empty
	// when the program is not one linear recursive system.
	Class string
	// Strategy is the compiled fast path ("tc-frontier", "bounded-union",
	// "stable-parallel" or "generic-parallel").
	Strategy string
	// CacheHit reports that the plan was served from the planner's cache,
	// skipping classification and rewriting.
	CacheHit bool
	// Cost is the plan's estimated full-evaluation cost in tuples visited,
	// summed over the compiled rule orders (0 when the plan carries no order
	// book — the TC frontier kernel never enumerates conjunctions).
	Cost int64
	// Orders lists the compiled join orders, one human-readable line per
	// rule ("head[i]: pred,pred,... cost=…"), sorted; nil when no order book
	// was compiled.
	Orders []string
}

func (p PlanInfo) String() string {
	cache := "miss"
	if p.CacheHit {
		cache = "hit"
	}
	s := fmt.Sprintf("class=%s strategy=%s cache=%s", p.Class, p.Strategy, cache)
	if p.Cost > 0 {
		s += fmt.Sprintf(" cost=%d", p.Cost)
	}
	return s
}

// RoundStats records one fixpoint round: how much delta was consumed, what
// the round produced, and — for the parallel engine — how the round was
// split into tasks and how well the worker pool was used. Every engine
// (naive, semi-naive, parallel, the compiled kernels) emits one RoundStats
// per round into Stats.Trace; the task/worker fields stay zero for the
// engines that do not run on the round driver (naive and the kernels).
type RoundStats struct {
	// Round is the 1-based global round number across all strata.
	Round int
	// Stratum is the 0-based stratum the round belongs to.
	Stratum int
	// Tasks is the number of (rule, delta-occurrence, partition) work units
	// the round was split into.
	Tasks int
	// Delta is the number of input delta tuples across the stratum's
	// predicates at the start of the round (0 for the seed round).
	Delta int
	// Derived is the number of new tuples the round inserted.
	Derived int
	// Attempted is the number of head-tuple derivations the round produced
	// before deduplication (the per-round analogue of Stats.Facts).
	Attempted int
	// Workers is the number of workers the round ran on: at most the pool
	// and the task count, 1 for a round run inline.
	Workers int
	// Duration is the wall-clock time of the round (fan-out through merge).
	Duration time.Duration
	// Busy is the summed execution time of the round's tasks across all
	// workers; Busy/(Workers·Duration) is the pool utilization.
	Busy time.Duration
	// Estimated is the cost model's prediction of the round's enumeration
	// work (tuples visited) under the compiled join orders; it stays 0 when
	// the round ran on the dynamic greedy ordering. Visited is what the
	// enumerations actually walked, counted under either ordering —
	// comparing the two per round is how a misestimate is debugged from
	// dlrun -trace or the query journal.
	Estimated int64
	Visited   int64
}

// Utilization returns the fraction of the round's worker capacity that was
// executing tasks, in [0, 1].
func (r RoundStats) Utilization() float64 {
	if r.Workers <= 0 || r.Duration <= 0 {
		return 0
	}
	u := float64(r.Busy) / (float64(r.Workers) * float64(r.Duration))
	if u > 1 {
		u = 1
	}
	return u
}

func (r RoundStats) String() string {
	s := fmt.Sprintf("round=%d stratum=%d delta=%d derived=%d attempted=%d",
		r.Round, r.Stratum, r.Delta, r.Derived, r.Attempted)
	if r.Workers > 0 {
		// Only the parallel engine fills the pool fields; sequential rounds
		// would otherwise print meaningless tasks=0 workers=0 util=0%.
		s += fmt.Sprintf(" tasks=%d workers=%d util=%.0f%%", r.Tasks, r.Workers, 100*r.Utilization())
	}
	if r.Estimated > 0 || r.Visited > 0 {
		s += fmt.Sprintf(" est=%d visited=%d", r.Estimated, r.Visited)
	}
	return s + fmt.Sprintf(" wall=%v", r.Duration)
}
