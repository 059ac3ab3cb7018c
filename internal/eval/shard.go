package eval

import "repro/internal/storage"

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
