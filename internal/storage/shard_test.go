package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestShardOfRangeAndStability pins the routing invariant: every value maps
// into [0, shards), the same value always maps to the same shard for a given
// shard count, and shard counts <= 1 collapse to shard 0.
func TestShardOfRangeAndStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := Value(rng.Intn(1 << 20))
		for _, shards := range []int{-1, 0, 1, 2, 3, 7, 16} {
			s := ShardOf(v, shards)
			if shards <= 1 {
				if s != 0 {
					t.Fatalf("ShardOf(%d, %d) = %d, want 0", v, shards, s)
				}
				continue
			}
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", v, shards, s)
			}
			if again := ShardOf(v, shards); again != s {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", v, shards, s, again)
			}
		}
	}
}

// TestShardOfSpreadsDenseValues: interned values are dense small integers;
// the hash must not send consecutive values to consecutive shards in
// lockstep (raw modulo would), and no shard may starve on a dense range.
func TestShardOfSpreadsDenseValues(t *testing.T) {
	const shards, n = 8, 4096
	counts := make([]int, shards)
	lockstep := 0
	for v := 0; v < n; v++ {
		s := ShardOf(Value(v), shards)
		counts[s]++
		if ShardOf(Value(v+1), shards) == (s+1)%shards {
			lockstep++
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received none of %d dense values", s, n)
		}
		// A uniform spread gives n/shards = 512 per shard; allow wide slack.
		if c < n/shards/4 || c > n/shards*4 {
			t.Errorf("shard %d holds %d of %d values — badly skewed", s, c, n)
		}
	}
	if lockstep > n/4 {
		t.Errorf("%d of %d consecutive values land in consecutive shards — hash correlates with insertion order", lockstep, n)
	}
}

// tupleKey renders a tuple for multiset comparison.
func tupleKey(tp Tuple) string { return fmt.Sprint([]Value(tp)) }

// TestPartitionTuplesByHashExhaustiveDisjoint: the partition is exactly the
// input — every tuple appears in exactly one group (nothing dropped, nothing
// duplicated), in the group ShardOf picks, and the result always has
// len == shards even when groups are empty.
func TestPartitionTuplesByHashExhaustiveDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ tuples, domain, col, shards int }{
		{0, 1, 0, 4},    // empty input: all groups empty, still len == shards
		{3, 100, 0, 16}, // more shards than tuples
		{500, 40, 1, 4}, // routine case, col 1
		{500, 2, 0, 8},  // 2-value domain: at most 2 non-empty groups
		{200, 1, 0, 5},  // single hot key: exactly 1 non-empty group
	} {
		in := make([]Tuple, tc.tuples)
		for i := range in {
			in[i] = Tuple{Value(rng.Intn(tc.domain)), Value(rng.Intn(tc.domain))}
		}
		groups := PartitionTuplesByHash(in, tc.col, tc.shards)
		if len(groups) != tc.shards {
			t.Fatalf("%+v: %d groups, want %d", tc, len(groups), tc.shards)
		}
		want := map[string]int{}
		for _, tp := range in {
			want[tupleKey(tp)]++
		}
		got := map[string]int{}
		total := 0
		for s, g := range groups {
			for _, tp := range g {
				if owner := ShardOf(tp[tc.col], tc.shards); owner != s {
					t.Fatalf("%+v: tuple %v in group %d, owner is %d", tc, tp, s, owner)
				}
				got[tupleKey(tp)]++
				total++
			}
		}
		if total != len(in) {
			t.Fatalf("%+v: partition holds %d tuples, input had %d", tc, total, len(in))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("%+v: tuple %s appears %d times in partition, %d in input", tc, k, got[k], n)
			}
		}
	}
}

// TestPartitionTuplesByHashSkewedHotKey: a pathological distribution — one
// key holding most tuples — must still be exact: the hot key's group has
// all its tuples, the rest spread over the remaining groups.
func TestPartitionTuplesByHashSkewedHotKey(t *testing.T) {
	const shards = 4
	var in []Tuple
	for i := 0; i < 900; i++ { // hot key 0
		in = append(in, Tuple{0, Value(i)})
	}
	for i := 0; i < 100; i++ { // long tail
		in = append(in, Tuple{Value(1 + i), Value(i)})
	}
	groups := PartitionTuplesByHash(in, 0, shards)
	hot := ShardOf(0, shards)
	hotCount := 0
	for _, tp := range groups[hot] {
		if tp[0] == 0 {
			hotCount++
		}
	}
	if hotCount != 900 {
		t.Errorf("hot shard %d holds %d of 900 hot-key tuples", hot, hotCount)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(in) {
		t.Errorf("partition holds %d tuples, want %d", total, len(in))
	}
}

// TestRelationPartitionByHash: the relation-level partitioner agrees with
// ShardOf tuple by tuple and its groups alias the arena (same backing
// headers as At).
func TestRelationPartitionByHash(t *testing.T) {
	db := NewDatabase()
	if err := GenRandomGraph(db, "e", 50, 300, 3); err != nil {
		t.Fatal(err)
	}
	r := db.Rel("e")
	for _, shards := range []int{1, 2, 5} {
		groups := r.PartitionByHash(1, shards)
		if len(groups) != shards {
			t.Fatalf("shards=%d: %d groups", shards, len(groups))
		}
		total := 0
		for s, g := range groups {
			for _, tp := range g {
				if owner := ShardOf(tp[1], shards); owner != s {
					t.Fatalf("shards=%d: tuple %v in group %d, owner %d", shards, tp, s, owner)
				}
			}
			total += len(g)
		}
		if total != r.Len() {
			t.Fatalf("shards=%d: partition holds %d, relation holds %d", shards, total, r.Len())
		}
	}
}
