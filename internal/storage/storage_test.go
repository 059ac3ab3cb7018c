package storage

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSymbolsIntern(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("alice")
	b := s.Intern("bob")
	if a == b {
		t.Error("distinct names interned equal")
	}
	if s.Intern("alice") != a {
		t.Error("re-interning changed value")
	}
	if s.Name(a) != "alice" || s.Name(b) != "bob" {
		t.Error("Name lookup wrong")
	}
	if _, ok := s.Lookup("carol"); ok {
		t.Error("Lookup invented a symbol")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Name(Value(99)) == "" {
		t.Error("out-of-range Name must return a placeholder")
	}
}

func TestTupleKeyAndEqual(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := Tuple{1, 2, 3}
	c := Tuple{1, 2, 4}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Error("Key collisions or mismatches")
	}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Tuple{1, 2}) {
		t.Error("Equal wrong")
	}
	cl := a.Clone()
	cl[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation(2)
	if !r.Insert(Tuple{1, 2}) {
		t.Error("first insert not new")
	}
	if r.Insert(Tuple{1, 2}) {
		t.Error("duplicate insert reported new")
	}
	if r.Len() != 1 || !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{2, 1}) {
		t.Error("contents wrong")
	}
}

func TestRelationInsertWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong-arity insert did not panic")
		}
	}()
	NewRelation(2).Insert(Tuple{1})
}

func TestRelationIndexMaintainedAcrossInserts(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 10})
	// Force index construction, then insert more.
	if got := len(r.LookupCol(0, 1)); got != 1 {
		t.Fatalf("lookup = %d", got)
	}
	r.Insert(Tuple{1, 20})
	r.Insert(Tuple{2, 30})
	if got := len(r.LookupCol(0, 1)); got != 2 {
		t.Errorf("index not maintained incrementally: %d", got)
	}
	if got := len(r.LookupCol(1, 30)); got != 1 {
		t.Errorf("second column index: %d", got)
	}
}

func TestEachMatchAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRelation(3)
	for i := 0; i < 300; i++ {
		r.Insert(Tuple{Value(rng.Intn(5)), Value(rng.Intn(5)), Value(rng.Intn(5))})
	}
	f := func(v0, v1 uint8, useB0, useB1 bool) bool {
		bound := []bool{useB0, useB1, false}
		vals := Tuple{Value(v0 % 5), Value(v1 % 5), 0}
		got := 0
		r.EachMatch(bound, vals, func(Tuple) bool { got++; return true })
		want := 0
		r.Each(func(t Tuple) bool {
			ok := true
			for c := range bound {
				if bound[c] && t[c] != vals[c] {
					ok = false
				}
			}
			if ok {
				want++
			}
			return true
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEachMatchEarlyStop(t *testing.T) {
	r := NewRelation(1)
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{Value(i)})
	}
	n := 0
	r.EachMatch([]bool{false}, Tuple{0}, func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRelationCloneIsolation(t *testing.T) {
	r := NewRelation(1)
	r.Insert(Tuple{1})
	c := r.Clone()
	c.Insert(Tuple{2})
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("clone not isolated")
	}
}

func TestRelationEqualAndInsertAll(t *testing.T) {
	a := NewRelation(2)
	b := NewRelation(2)
	a.Insert(Tuple{1, 2})
	a.Insert(Tuple{3, 4})
	if a.Equal(b) {
		t.Error("different relations equal")
	}
	if n := b.InsertAll(a); n != 2 {
		t.Errorf("InsertAll added %d", n)
	}
	if !a.Equal(b) {
		t.Error("copies not equal")
	}
	if n := b.InsertAll(a); n != 0 {
		t.Errorf("second InsertAll added %d", n)
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Insert("e", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("e", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if db.Rel("e").Len() != 1 {
		t.Error("duplicate fact stored")
	}
	if _, err := db.Insert("e", "a"); err == nil {
		t.Error("arity change accepted")
	}
	if _, err := db.Ensure("e", 3); err == nil {
		t.Error("Ensure with conflicting arity accepted")
	}
	preds := db.Preds()
	if len(preds) != 1 || preds[0] != "e" {
		t.Errorf("preds = %v", preds)
	}
}

func TestDatabaseCloneIsolation(t *testing.T) {
	db := NewDatabase()
	db.Insert("e", "a", "b")
	c := db.Clone()
	c.Insert("e", "x", "y")
	if db.Rel("e").Len() != 1 || c.Rel("e").Len() != 2 {
		t.Error("clone not isolated")
	}
	if db.Syms != c.Syms {
		t.Error("clone must share the symbol table")
	}
}

func TestDumpDeterministic(t *testing.T) {
	db := NewDatabase()
	db.Insert("e", "b", "c")
	db.Insert("e", "a", "b")
	d1, d2 := db.Dump("e"), db.Dump("e")
	if d1 != d2 {
		t.Error("dump not deterministic")
	}
	if d1 != "e(a, b)\ne(b, c)\n" {
		t.Errorf("dump = %q", d1)
	}
	if db.Dump("missing") != "missing: <absent>\n" {
		t.Errorf("missing dump = %q", db.Dump("missing"))
	}
}

func TestGenerators(t *testing.T) {
	db := NewDatabase()
	if err := GenChain(db, "chain", 10); err != nil {
		t.Fatal(err)
	}
	if db.Rel("chain").Len() != 9 {
		t.Errorf("chain edges = %d", db.Rel("chain").Len())
	}
	if err := GenCycle(db, "cyc", 5); err != nil {
		t.Fatal(err)
	}
	if db.Rel("cyc").Len() != 5 {
		t.Errorf("cycle edges = %d", db.Rel("cyc").Len())
	}
	if err := GenTree(db, "tree", 2, 3); err != nil {
		t.Fatal(err)
	}
	if db.Rel("tree").Len() != 2+4+8 {
		t.Errorf("tree edges = %d", db.Rel("tree").Len())
	}
	if err := GenGrid(db, "grid", 3, 3); err != nil {
		t.Fatal(err)
	}
	if db.Rel("grid").Len() != 12 {
		t.Errorf("grid edges = %d", db.Rel("grid").Len())
	}
	if err := GenRandomGraph(db, "rnd", 10, 25, 1); err != nil {
		t.Fatal(err)
	}
	if db.Rel("rnd").Len() != 25 {
		t.Errorf("random edges = %d", db.Rel("rnd").Len())
	}
}

func TestGenRandomRelationDeterministicAndCapped(t *testing.T) {
	db1 := NewDatabase()
	db2 := NewDatabase()
	GenRandomRelation(db1, "r", 2, 6, 20, 99)
	GenRandomRelation(db2, "r", 2, 6, 20, 99)
	if db1.Dump("r") != db2.Dump("r") {
		t.Error("same seed produced different relations")
	}
	db3 := NewDatabase()
	// Request more tuples than the domain can hold: must cap, not loop.
	if err := GenRandomRelation(db3, "small", 1, 3, 100, 1); err != nil {
		t.Fatal(err)
	}
	if db3.Rel("small").Len() != 3 {
		t.Errorf("capped relation = %d, want 3", db3.Rel("small").Len())
	}
}

func TestIndexedAndBuildIndexes(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 2})
	if r.Indexed() {
		t.Error("fresh relation reports indexes built")
	}
	r.LookupCol(0, 1)
	if r.Indexed() {
		t.Error("one lazy column index must not count as fully indexed")
	}
	r.BuildIndexes()
	if !r.Indexed() {
		t.Error("BuildIndexes did not materialize every column")
	}
	// Inserts after the build must keep the indexes current.
	r.Insert(Tuple{3, 4})
	if got := r.LookupCol(1, 4); len(got) != 1 {
		t.Errorf("index not maintained after insert: %v", got)
	}
	if !r.Indexed() {
		t.Error("insert invalidated the indexed state")
	}
}

func TestPartition(t *testing.T) {
	r := NewRelation(1)
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{Value(i)})
	}
	for _, parts := range []int{1, 2, 3, 10, 25, 0} {
		chunks := PartitionTuples(r.Tuples(), parts)
		total := 0
		for _, c := range chunks {
			if len(c) == 0 {
				t.Errorf("parts=%d: empty chunk", parts)
			}
			total += len(c)
		}
		if total != 10 {
			t.Errorf("parts=%d: chunks cover %d tuples, want 10", parts, total)
		}
		want := parts
		if want < 1 {
			want = 1
		}
		if want > 10 {
			want = 10
		}
		if len(chunks) > want {
			t.Errorf("parts=%d: got %d chunks", parts, len(chunks))
		}
	}
	if got := PartitionTuples(NewRelation(1).Tuples(), 4); got != nil {
		t.Errorf("empty relation partitioned into %d chunks", len(got))
	}
}

// TestInsertDuplicateZeroAllocs pins the tentpole regression: inserting a
// duplicate must not allocate (the old representation built the arena copy
// — previously a Clone — and a string key before the membership check).
// Contains shares the same probe and must be allocation-free too.
func TestInsertDuplicateZeroAllocs(t *testing.T) {
	r := NewRelation(3)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{Value(i), Value(i % 7), Value(i % 3)})
	}
	r.BuildIndexes() // duplicates must stay free with live indexes too
	probe := Tuple{5, 5, 2}
	if !r.Contains(probe) {
		t.Fatal("probe tuple missing")
	}
	if n := testing.AllocsPerRun(100, func() {
		if r.Insert(probe) {
			t.Error("duplicate insert reported new")
		}
	}); n != 0 {
		t.Errorf("duplicate Insert allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Contains(probe) {
			t.Error("Contains lost the tuple")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %v times", n)
	}
}

// TestReadPhaseNeverBuildsLazily checks the post-BuildIndexes contract: a
// probe of a column whose index is somehow missing returns an error-free
// empty result and must not build the index (which would mutate the
// relation under concurrent readers).
func TestReadPhaseNeverBuildsLazily(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 2})
	r.Insert(Tuple{3, 2})
	r.BuildIndexes()
	r.colIdx[1] = nil // simulate a missing index in the frozen phase
	if got := r.LookupCol(1, 2); got != nil {
		t.Errorf("frozen LookupCol = %v, want empty", got)
	}
	n := 0
	r.EachCol(1, 2, func(Tuple) bool { n++; return true })
	if n != 0 {
		t.Errorf("frozen EachCol visited %d tuples", n)
	}
	r.EachMatch([]bool{false, true}, Tuple{0, 2}, func(Tuple) bool { n++; return true })
	if n != 0 {
		t.Errorf("frozen EachMatch visited %d tuples", n)
	}
	if r.colIdx[1] != nil {
		t.Error("frozen read path rebuilt the index")
	}
	// Column 0's index is intact and must still answer.
	if got := len(r.LookupCol(0, 1)); got != 1 {
		t.Errorf("intact column lookup = %d, want 1", got)
	}
	// Reset unfreezes: lazy building is legal again.
	r.Reset(2)
	r.Insert(Tuple{7, 8})
	if got := len(r.LookupCol(1, 8)); got != 1 {
		t.Errorf("post-Reset lazy lookup = %d, want 1", got)
	}
}

// TestPartitionTuplesEdgeCases covers the slice-level partitioner directly:
// empty input, more workers than tuples, and arity-1 relations.
func TestPartitionTuplesEdgeCases(t *testing.T) {
	if got := PartitionTuples(nil, 4); got != nil {
		t.Errorf("nil slice partitioned into %d chunks", len(got))
	}
	if got := PartitionTuples([]Tuple{}, 0); got != nil {
		t.Errorf("empty slice partitioned into %d chunks", len(got))
	}
	one := []Tuple{{1}}
	for _, parts := range []int{-3, 0, 1, 2, 100} {
		chunks := PartitionTuples(one, parts)
		if len(chunks) != 1 || len(chunks[0]) != 1 || chunks[0][0][0] != 1 {
			t.Errorf("parts=%d: chunks = %v", parts, chunks)
		}
	}
	// workers > len: every tuple in its own chunk, none empty.
	five := []Tuple{{0}, {1}, {2}, {3}, {4}}
	chunks := PartitionTuples(five, 99)
	if len(chunks) != 5 {
		t.Fatalf("got %d chunks, want 5", len(chunks))
	}
	for i, c := range chunks {
		if len(c) != 1 || c[0][0] != Value(i) {
			t.Errorf("chunk %d = %v", i, c)
		}
	}
	// Arity-1 relation through the method, non-divisible split.
	r := NewRelation(1)
	for i := 0; i < 7; i++ {
		r.Insert(Tuple{Value(i)})
	}
	total := 0
	for _, c := range PartitionTuples(r.Tuples(), 3) {
		total += len(c)
	}
	if total != 7 {
		t.Errorf("partitioned arity-1 chunks cover %d tuples, want 7", total)
	}
}

// TestConcurrentReadsWithOverflowIndexes is the overflow variant of the
// concurrent-read contract: inserts after BuildIndexes land in per-value
// overflow lists, and a subsequent read phase must serve merged results to
// many goroutines without mutation. Meaningful under -race.
func TestConcurrentReadsWithOverflowIndexes(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 50; i++ {
		r.Insert(Tuple{Value(i % 10), Value(i)})
	}
	r.BuildIndexes()
	// Exclusive write phase: these go through the overflow path.
	for i := 50; i < 80; i++ {
		r.Insert(Tuple{Value(i % 10), Value(i)})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := Value(0); v < 10; v++ {
				if got := len(r.LookupCol(0, v)); got != 8 {
					errs <- "overflow LookupCol wrong"
					return
				}
				n := 0
				r.EachCol(0, v, func(Tuple) bool { n++; return true })
				if n != 8 {
					errs <- "overflow EachCol wrong"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentReadsAfterBuildIndexes exercises the relation's documented
// concurrency contract: once the indexes are prebuilt, any number of
// readers may run at once. Meaningful under -race (the Makefile race
// target); it still checks results without it.
func TestConcurrentReadsAfterBuildIndexes(t *testing.T) {
	db := NewDatabase()
	if err := GenRandomRelation(db, "r", 2, 30, 300, 7); err != nil {
		t.Fatal(err)
	}
	r := db.Rel("r")
	r.BuildIndexes()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := Value(0); v < 30; v++ {
				n := 0
				r.EachMatch([]bool{true, false}, Tuple{v, 0}, func(t Tuple) bool {
					n++
					return true
				})
				if n != len(r.LookupCol(0, v)) {
					errs <- "EachMatch and LookupCol disagree"
					return
				}
				m := 0
				r.EachCol(0, v, func(Tuple) bool { m++; return true })
				if m != n {
					errs <- "EachCol and EachMatch disagree"
					return
				}
			}
			for _, chunk := range PartitionTuples(r.Tuples(), 4) {
				for _, tup := range chunk {
					if !r.Contains(tup) {
						errs <- "partitioned tuple not contained"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRelStatsCounters exercises every write-path counter directly: probes
// and duplicates from Insert, arena/table growth from volume, index builds
// from a lazy column probe.
func TestRelStatsCounters(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{Value(i), Value(i + 1)})
	}
	r.Insert(Tuple{0, 1}) // duplicate
	st := r.Stats()
	if st.Probes != 101 {
		t.Errorf("Probes = %d, want 101", st.Probes)
	}
	if st.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", st.Duplicates)
	}
	if st.ArenaBytes <= 0 {
		t.Errorf("ArenaBytes = %d, want > 0", st.ArenaBytes)
	}
	if st.TableGrows == 0 {
		t.Error("TableGrows = 0 after 100 inserts, want at least one rehash")
	}
	if st.IndexBuilds != 0 {
		t.Errorf("IndexBuilds = %d before any column probe, want 0", st.IndexBuilds)
	}
	r.LookupCol(0, 0)
	if got := r.Stats().IndexBuilds; got != 1 {
		t.Errorf("IndexBuilds after lazy probe = %d, want 1", got)
	}

	sum := st.Add(r.Stats())
	if sum.Probes != 2*st.Probes || sum.IndexBuilds != 1 {
		t.Errorf("Add: %+v", sum)
	}
}
