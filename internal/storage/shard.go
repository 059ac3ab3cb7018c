package storage

// Hash partitioning for the sharded fixpoint engine. A shard owns the tuples
// whose value in one designated column (the frontier join column) hashes to
// it; the eval layer routes every freshly derived tuple to its owner shard's
// next-round frontier, so per-shard fixpoints stay disjoint between round
// barriers. The partitioner only groups tuple headers — tuples keep aliasing
// their relation's arena, and the same value always lands in the same shard
// for a given shard count (the routing invariant the exchange tests pin).

// HashValue spreads one interned value into a 64-bit hash. Interned values
// are small dense integers, so the raw word would put consecutive symbols in
// consecutive shards (perfectly correlated with insertion order, the worst
// case for a skewed workload); the multiply + fmix64 avalanche decorrelates
// them while staying allocation-free.
func HashValue(v Value) uint64 {
	return fmix64(hashSeed ^ uint64(uint32(v))*hashM1)
}

// ShardOf returns the shard in [0, shards) owning value v. Every shard count
// <= 1 collapses to shard 0 (the unsharded path).
func ShardOf(v Value, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(HashValue(v) % uint64(shards))
}

// PartitionTuplesByHash splits the tuples into exactly `shards` groups by
// ShardOf over column col. Unlike PartitionTuples (contiguous near-equal
// chunks for bulk fan-out), the assignment here is value-determined: two
// tuples sharing a join-column value always land in the same group, and the
// result always has len == shards even when some groups come back empty
// (shard indexes are identities across rounds, not packing slots). The
// returned slices hold the input's tuple headers; nothing is copied.
func PartitionTuplesByHash(tuples []Tuple, col, shards int) [][]Tuple {
	if shards <= 1 {
		return [][]Tuple{tuples}
	}
	out := make([][]Tuple, shards)
	if len(tuples) == 0 {
		return out
	}
	// Counting pass first so each group is allocated exactly once.
	counts := make([]int, shards)
	for _, t := range tuples {
		counts[ShardOf(t[col], shards)]++
	}
	for s, n := range counts {
		if n > 0 {
			out[s] = make([]Tuple, 0, n)
		}
	}
	for _, t := range tuples {
		s := ShardOf(t[col], shards)
		out[s] = append(out[s], t)
	}
	return out
}

// PartitionByHash hash-partitions the relation's tuples by column col into
// `shards` groups (see PartitionTuplesByHash). The groups alias the
// relation's arena: valid as long as the relation lives, safe to read
// concurrently with appends (the tuple prefix is immutable).
func (r *Relation) PartitionByHash(col, shards int) [][]Tuple {
	return PartitionTuplesByHash(r.tuples, col, shards)
}
