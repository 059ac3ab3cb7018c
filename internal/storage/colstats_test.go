package storage

import (
	"fmt"
	"testing"
)

// skewedRelation builds a two-column relation where column 0 has one hot
// key ("h") carrying hot tuples and cold distinct filler keys, while
// column 1 is key-like (all distinct).
func skewedRelation(t *testing.T, db *Database, pred string, hot, cold int) *Relation {
	t.Helper()
	for i := 0; i < hot; i++ {
		db.Insert(pred, "h", fmt.Sprintf("hv%d", i))
	}
	for i := 0; i < cold; i++ {
		db.Insert(pred, fmt.Sprintf("c%d", i), fmt.Sprintf("cv%d", i))
	}
	return db.Rel(pred)
}

// TestColStatsExactWhenIndexed checks Distinct/MaxBucket/AvgBucket against
// a hand-built skewed distribution, including exact overflow folding.
func TestColStatsExactWhenIndexed(t *testing.T) {
	db := NewDatabase()
	r := skewedRelation(t, db, "s", 40, 10)
	db.BuildIndexes()

	cs := r.ColStats(0)
	if cs.Distinct != 11 || cs.MaxBucket != 40 {
		t.Errorf("col 0: got %+v, want Distinct=11 MaxBucket=40", cs)
	}
	if cs.AvgBucket < 4.5 || cs.AvgBucket > 4.6 { // 50/11
		t.Errorf("col 0: AvgBucket = %v, want ~4.55", cs.AvgBucket)
	}
	cs = r.ColStats(1)
	if cs.Distinct != 50 || cs.MaxBucket != 1 {
		t.Errorf("col 1: got %+v, want Distinct=50 MaxBucket=1", cs)
	}

	// Overflow growing the hot bucket and adding a new value must fold in
	// exactly: MaxBucket 40+2, Distinct 11+1.
	db.Insert("s", "h", "ov1")
	db.Insert("s", "h", "ov2")
	db.Insert("s", "brandnew", "ov3")
	cs = r.ColStats(0)
	if cs.Distinct != 12 || cs.MaxBucket != 42 {
		t.Errorf("after overflow: got %+v, want Distinct=12 MaxBucket=42", cs)
	}
}

// TestColStatsSampledBounds checks the no-index sampled path stays within
// the planner's required bounds and points the right way on skew.
func TestColStatsSampledBounds(t *testing.T) {
	db := NewDatabase()
	skewedRelation(t, db, "s", 2000, 500)
	r := db.Rel("s")
	// Read the sample directly (ColStats on an unpublished relation without
	// a built index takes this path since it never builds one).
	for col := 0; col < 2; col++ {
		cs := r.ColStats(col)
		if cs.Distinct < 1 || cs.Distinct > r.Len() {
			t.Errorf("col %d: Distinct = %d outside [1, %d]", col, cs.Distinct, r.Len())
		}
		if cs.MaxBucket < 1 || cs.MaxBucket > r.Len() {
			t.Errorf("col %d: MaxBucket = %d outside [1, %d]", col, cs.MaxBucket, r.Len())
		}
	}
	// The hot column must look much heavier than the key-like column.
	if h, k := r.ColStats(0).MaxBucket, r.ColStats(1).MaxBucket; h <= k {
		t.Errorf("skew not visible to sample: hot MaxBucket %d <= key MaxBucket %d", h, k)
	}
}

// TestMatchCountBuckets checks MatchCount returns the most selective bound
// column's bucket size, the relation size when nothing is bound, and 0 for
// values never seen.
func TestMatchCountBuckets(t *testing.T) {
	db := NewDatabase()
	r := skewedRelation(t, db, "s", 30, 5)
	db.BuildIndexes()
	h, _ := db.Syms.Lookup("h")
	hv3, _ := db.Syms.Lookup("hv3")

	if got := r.MatchCount([]bool{false, false}, Tuple{0, 0}); got != r.Len() {
		t.Errorf("unbound: %d, want %d", got, r.Len())
	}
	if got := r.MatchCount([]bool{true, false}, Tuple{h, 0}); got != 30 {
		t.Errorf("hot key: %d, want 30", got)
	}
	// Both bound: min(bucket(h)=30, bucket(hv3)=1) = 1.
	if got := r.MatchCount([]bool{true, true}, Tuple{h, hv3}); got != 1 {
		t.Errorf("both bound: %d, want 1", got)
	}
	if got := r.MatchCount([]bool{false, true}, Tuple{0, Value(1 << 30)}); got != 0 {
		t.Errorf("unseen value: %d, want 0", got)
	}
}

// TestStatsEpochAdvances pins the plan-cache invalidation hook: building,
// the staleness rebuild after overflow, and COW snapshots all interact with
// the statistics stamp as documented.
func TestStatsEpochAdvances(t *testing.T) {
	db := NewDatabase()
	db.Insert("e", "a", "b")
	db.Insert("e", "b", "c")
	if got := db.StatsEpoch(); got != 0 {
		t.Fatalf("pre-build epoch = %d, want 0", got)
	}
	db.BuildIndexes()
	e1 := db.StatsEpoch()
	if e1 == 0 {
		t.Fatal("post-build epoch still 0")
	}
	// A few overflow inserts leave the CSR body, and the epoch, alone.
	db.Insert("e", "c", "d")
	if got := db.StatsEpoch(); got != e1 {
		t.Fatalf("one overflow insert moved epoch %d -> %d", e1, got)
	}
	// Outgrowing the last build by half plus 64 tuples (colIndex.stale)
	// folds the overflow back and must advance the epoch so cached plans
	// compiled against the old statistics stop being served.
	for i := 0; i < 70; i++ {
		db.Insert("e", fmt.Sprintf("x%d", i), "y")
	}
	e2 := db.StatsEpoch()
	if e2 <= e1 {
		t.Fatalf("staleness rebuild after overflow: epoch %d, want > %d", e2, e1)
	}
	if got := db.Rel("e").StatsVersion(); got != e2 {
		t.Fatalf("relation stamp %d != db epoch %d", got, e2)
	}
}
