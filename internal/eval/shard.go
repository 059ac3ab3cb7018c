package eval

import (
	"runtime"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Shard policy for the round driver's hash partition (driver.go). Shard
// counts come from chooseShards: explicit Opts.Shards wins, otherwise
// GOMAXPROCS bounded by the input's size and join-column cardinality, with a
// small-input cutoff keeping the contiguous-chunk partition (for a frontier
// of a few thousand tuples the exchange bookkeeping costs more than it
// buys).

// shardMinTuples is the auto policy's small-input cutoff: below this many
// relevant input tuples frontiers are not hash-sharded.
const shardMinTuples = 4096

// autoShards is the policy shared by the fixpoint and TC selectors. An
// explicit Opts.Shards setting is obeyed (1 = never shard, >= 2 = exactly
// that many shards); 0 is the auto policy: GOMAXPROCS-many shards (or
// Opts.Workers when set) unless the work estimate is below shardMinTuples,
// capped by the largest input relation's column cardinality so shards are
// never guaranteed empty.
func autoShards(opts Opts, workEst int, largest *storage.Relation) int {
	if opts.Shards == 1 {
		return 1
	}
	if opts.Shards > 1 {
		return opts.Shards
	}
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 2 || largest == nil || workEst < shardMinTuples {
		return 1
	}
	return capShards(n, relCardinality(largest))
}

// chooseShards picks the shard count for a fixpoint over prog/db from the
// summed size of the body relations. When a compiled order book is
// attached, its estimated enumeration cost raises the work estimate above
// the raw input size — a small input whose joins the cost model predicts to
// be expensive is still worth sharding (the estimate only ever widens the
// sharded regime, so bookless behavior is unchanged).
func chooseShards(opts Opts, db *storage.Database, prog *ast.Program) int {
	seen := make(map[string]bool)
	total := 0
	var largest *storage.Relation
	for _, r := range prog.Rules {
		for _, a := range r.Body {
			if seen[a.Pred] {
				continue
			}
			seen[a.Pred] = true
			rel := db.Rel(a.Pred)
			if rel == nil {
				continue
			}
			total += rel.Len()
			if largest == nil || rel.Len() > largest.Len() {
				largest = rel
			}
		}
	}
	if opts.book != nil && opts.book.cost > float64(total) {
		if opts.book.cost > 1e9 {
			total = 1 << 30
		} else {
			total = int(opts.book.cost)
		}
	}
	return autoShards(opts, total, largest)
}

// chooseShardsTC is the policy for the transitive-closure compose kernel:
// the relevant input is the edge relation alone, and the useful shard bound
// is its endpoint cardinality.
func chooseShardsTC(opts Opts, edges *storage.Relation) int {
	n := 0
	if edges != nil {
		n = edges.Len()
	}
	return autoShards(opts, n, edges)
}

// relCardinality returns the largest per-column distinct-value count of the
// relation — the fan-out bound on useful shard counts.
func relCardinality(rel *storage.Relation) int {
	card := 0
	for col := 0; col < rel.Arity(); col++ {
		if c := rel.ColCardinality(col); c > card {
			card = c
		}
	}
	return card
}

// capShards bounds the shard count by the join domain's cardinality: with
// fewer distinct keys than shards some shards can never receive a tuple.
func capShards(n, card int) int {
	if card < n {
		n = card
	}
	if n < 2 {
		return 1
	}
	return n
}

// shardCols picks, for each of the stratum's local predicates, the column
// its frontier is hash-partitioned by. Candidates are the argument
// positions of the predicate's positive body occurrences whose variable is
// shared with another body literal — frontier join columns, so the tuples a
// join brings together tend to live in the same shard. Among multiple
// candidates the pick minimizes expected skew: the column whose current
// relation statistics show the smallest max-bucket fan-out (a hot key in
// the partition column funnels its whole bucket into one shard and
// serializes the round). Predicates that never occur positively in a body
// (or share no variable) default to column 0. The choice only affects
// locality and exchange volume, never answers: any exhaustive disjoint
// partition of the frontier yields the same fixpoint. work is read for
// statistics only; callers pass it after the seed round so IDB frontiers
// have representative contents.
func shardCols(rules []compiledRule, local map[string]bool, work *storage.Database) map[string]int {
	cand := make(map[string][]int, len(local))
	for i := range rules {
		r := rules[i].rule
		for bi, a := range r.Body {
			if a.Neg || !local[a.Pred] {
				continue
			}
			for ai, t := range a.Args {
				if !t.IsVar() {
					continue
				}
				shared := false
				for bj, b := range r.Body {
					if bj == bi {
						continue
					}
					for _, u := range b.Args {
						if u.IsVar() && u.Name == t.Name {
							shared = true
							break
						}
					}
					if shared {
						break
					}
				}
				if shared {
					dup := false
					for _, c := range cand[a.Pred] {
						if c == ai {
							dup = true
							break
						}
					}
					if !dup {
						cand[a.Pred] = append(cand[a.Pred], ai)
					}
				}
			}
		}
	}
	cols := make(map[string]int, len(local))
	for pred := range local {
		cs := cand[pred]
		if len(cs) == 0 {
			cols[pred] = 0
			continue
		}
		best := cs[0]
		if len(cs) > 1 && work != nil {
			if rel := work.Rel(pred); rel != nil && rel.Len() > 0 {
				bestBucket := -1
				for _, c := range cs {
					b := rel.ColStats(c).MaxBucket
					if bestBucket == -1 || b < bestBucket || (b == bestBucket && c < best) {
						best, bestBucket = c, b
					}
				}
			}
		}
		cols[pred] = best
	}
	return cols
}
