package storage

// Column statistics for the cost-based join planner. The CSR build already
// makes one counting pass over every bucket, so distinct counts and the
// worst-case bucket size (fan-out) come for free at build time; this file
// exposes them — adjusted for post-build overflow inserts — together with a
// sampled-scan fallback for columns that have no index, and the statistics
// version stamp the plan cache keys on.

import "sync/atomic"

// statsVersion hands out globally unique statistics stamps. A plain global
// counter (not per-relation) so that comparing two stamps never needs to
// know which relation produced them: newer stamp == newer statistics.
var statsVersion atomic.Uint64

// ColStats summarizes the value distribution of one column:
//
//   - Distinct: estimated number of distinct values (exact when a CSR index
//     covers all tuples, an upper-bounded estimate otherwise).
//   - MaxBucket: the largest number of tuples sharing one value — the
//     worst-case fan-out of a bound probe on this column, and the skew
//     measure the cost model wants (a hot key makes the average
//     misleading).
//   - AvgBucket: Len()/Distinct, the mean fan-out.
//
// The zero value describes an empty column.
type ColStats struct {
	Distinct  int
	MaxBucket int
	AvgBucket float64
}

// sampleCap bounds the sampled-scan fallback used when a column has no CSR
// index: at most this many tuples are inspected, taken at a fixed stride so
// runs of equal values (sorted inserts) still land in the sample.
const sampleCap = 512

// sampleCol estimates the distinct count and max bucket of a column by a
// strided read-only scan of at most sampleCap tuples. Returns extrapolated
// estimates clamped to [1, n] for a non-empty input. It allocates a small
// counting map but never touches the relation's indexes, so it is safe on a
// published relation shared by concurrent readers.
func sampleCol(tuples []Tuple, col int) (distinct, maxBucket int) {
	n := len(tuples)
	if n == 0 {
		return 0, 0
	}
	k := n
	if k > sampleCap {
		k = sampleCap
	}
	stride := n / k
	if stride < 1 {
		stride = 1
	}
	counts := make(map[Value]int, k)
	seen := 0
	maxFreq := 0
	for i := 0; i < n && seen < k; i += stride {
		v := tuples[i][col]
		counts[v]++
		if counts[v] > maxFreq {
			maxFreq = counts[v]
		}
		seen++
	}
	d := len(counts)
	if d == seen {
		// Every sampled value was distinct: the column looks key-like;
		// extrapolate to the full relation.
		distinct = n
	} else {
		// Scale the sampled distinct count by the sampling fraction. This
		// over-estimates for heavy-tailed distributions, but the clamp below
		// keeps it inside the only bounds that matter to the planner.
		distinct = d * n / seen
	}
	if distinct < d {
		distinct = d
	}
	if distinct > n {
		distinct = n
	}
	if distinct < 1 {
		distinct = 1
	}
	maxBucket = maxFreq * n / seen
	if maxBucket < maxFreq {
		maxBucket = maxFreq
	}
	if maxBucket > n {
		maxBucket = n
	}
	if maxBucket < 1 {
		maxBucket = 1
	}
	return distinct, maxBucket
}

// ColStats returns the column's distribution statistics. When a CSR index
// exists the numbers come from its build-time bucket scan (exact over the
// built prefix, adjusted for overflow inserts by walking the overflow map);
// otherwise a strided sample of at most sampleCap tuples estimates them.
// ColStats never builds an index — unlike EachMatch's lazy pre-publish path
// it may be called concurrently by planners racing over a shared database —
// and never returns Distinct or MaxBucket outside [1, Len()] for a
// non-empty column.
func (r *Relation) ColStats(col int) ColStats {
	if col < 0 || col >= r.arity || len(r.tuples) == 0 {
		return ColStats{}
	}
	n := len(r.tuples)
	ci := r.colIdx[col]
	var distinct, maxBucket int
	if ci == nil {
		distinct, maxBucket = sampleCol(r.tuples, col)
	} else {
		distinct, maxBucket = int(ci.distinct), int(ci.maxBucket)
		if ci.nextra > 0 {
			// Fold the overflow in exactly: each overflow value either grows
			// an existing bucket or opens a new one.
			for v, ps := range ci.extra {
				b := len(ci.csrRange(v))
				if b == 0 {
					distinct++
				}
				if b+len(ps) > maxBucket {
					maxBucket = b + len(ps)
				}
			}
		}
	}
	if distinct > n {
		distinct = n
	}
	if distinct < 1 {
		distinct = 1
	}
	if maxBucket > n {
		maxBucket = n
	}
	if maxBucket < 1 {
		maxBucket = 1
	}
	return ColStats{
		Distinct:  distinct,
		MaxBucket: maxBucket,
		AvgBucket: float64(n) / float64(distinct),
	}
}

// MatchCount returns the number of postings EachMatch would walk for the
// partial binding: the most selective bound column's bucket size, or Len()
// when no column is bound. It is an upper bound on the number of matching
// tuples (EachMatch re-checks the other bound columns per posting) and the
// exact enumeration cost. Same index contract as EachMatch: builds lazily
// pre-publish, returns 0 for a published relation missing the index.
func (r *Relation) MatchCount(bound []bool, vals Tuple) int {
	best := -1
	for col, b := range bound {
		if !b {
			continue
		}
		ci := r.probeIndex(col)
		if ci == nil {
			return 0
		}
		n := ci.count(vals[col])
		if best == -1 || n < best {
			best = n
		}
	}
	if best == -1 {
		return len(r.tuples)
	}
	return best
}

// StatsVersion returns the relation's statistics stamp: 0 before any index
// publish, otherwise the globally unique version of the last rebuild that
// changed its column statistics (BuildIndexes, or an overflow-triggered
// staleness rebuild during Insert).
func (r *Relation) StatsVersion() uint64 { return r.statsVer }

// StatsEpoch folds every relation's statistics stamp into one number: the
// maximum StatsVersion present. Any rebuild anywhere in the database changes
// it, so plan caches can use it as the coarse "statistics generation" part
// of their keys. Requires no concurrent writer (same contract as reads).
func (db *Database) StatsEpoch() uint64 {
	var max uint64
	for _, r := range db.rels {
		if v := r.statsVer; v > max {
			max = v
		}
	}
	return max
}
