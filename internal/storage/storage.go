// Package storage implements the extensional layer of the deductive
// database: interned constants, tuples, relations, and whole databases,
// plus deterministic synthetic EDB generators for the experiments.
//
// The tuple store is built for the fixpoint engines' hot path. Tuple values
// live in one chunked arena of flat []Value blocks (no per-tuple clone
// allocation); membership is an open-addressing table keyed by a 64-bit
// word hash of the values (no string keys — Insert of a duplicate and
// Contains are allocation-free); and column indexes are CSR-style
// (offsets, positions) arrays built in one counting pass (see csr.go).
package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Value is an interned constant. Values are only meaningful together with
// the Symbols table that produced them.
type Value int32

// Symbols interns constant names to dense Values. The table is safe for
// concurrent use: the serving path interns new constants on the writer side
// while any number of snapshot readers compile conjunctions (which intern
// rule constants) and render answers. Values are append-only, so a Value
// handed out once names the same constant forever.
type Symbols struct {
	mu    sync.RWMutex
	names []string
	index map[string]Value
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{index: make(map[string]Value)}
}

// Intern returns the Value for name, assigning a fresh one if needed.
func (s *Symbols) Intern(name string) Value {
	s.mu.RLock()
	v, ok := s.index[name]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.index[name]; ok {
		return v
	}
	v = Value(len(s.names))
	s.names = append(s.names, name)
	s.index[name] = v
	return v
}

// Lookup returns the Value for name without interning.
func (s *Symbols) Lookup(name string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.index[name]
	return v, ok
}

// Name returns the name of v.
func (s *Symbols) Name(v Value) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(v) < 0 || int(v) >= len(s.names) {
		return fmt.Sprintf("?%d", int32(v))
	}
	return s.names[v]
}

// Len returns the number of interned symbols.
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Tuple is a fixed-arity row of values.
type Tuple []Value

// Key serializes the tuple into a map key. The relation's own dedup no
// longer uses string keys (see hashWords); Key remains the reference
// semantics that the word-hash set is differentially tested against, and a
// convenient map key for callers outside the hot path.
func (t Tuple) Key() string {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		binary.BigEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Arena block sizing: blocks double from minBlockTuples tuples up to
// maxBlockValues values, so small relations stay small and big ones
// amortize to one allocation per ~16k values.
const (
	minBlockTuples = 64
	maxBlockValues = 1 << 14
	// valueBytes sizes arena accounting (Value is an int32).
	valueBytes = 4
)

// Relation is a set of tuples of fixed arity. Tuple storage is a chunked
// value arena (tuple headers alias arena blocks and stay valid forever —
// blocks never move or shrink), dedup is a word-hashed open-addressing
// position table, and per-column CSR indexes are built lazily on first
// probe and maintained incrementally thereafter.
//
// Concurrency contract: a Relation is not safe for concurrent use while its
// indexes build lazily — EachMatch, EachCol and LookupCol materialize
// missing column indexes on first use, which mutates the relation even on a
// logically read-only path. Call BuildIndexes first (or
// Database.BuildIndexes for a whole database); after that the read path
// never mutates — a probe for a column that somehow lacks an index returns
// an empty result instead of building one — and any number of goroutines
// may call the read methods (Len, Contains, Tuples, At, Each, EachCol,
// EachMatch, LookupCol) concurrently as long as no writer runs.
// Insert, InsertAll and Reset always require exclusive access; Insert keeps
// already-built indexes current, so a single-threaded write phase may be
// followed by another concurrent read phase without rebuilding.
type Relation struct {
	arity  int
	blocks [][]Value // value arena; the last block is the open one
	tuples []Tuple   // insertion-ordered headers aliasing the arena
	table  []uint32  // open addressing; 0 empty, else position+1
	colIdx []*colIndex
	// published flips at BuildIndexes: it freezes the read path (no lazy
	// index construction) until the next Insert-free Reset.
	published bool
	// frozen marks the relation as pinned by a live Snapshot (or a result
	// cache): Insert and Reset panic, because snapshot readers alias the
	// arena blocks and probe the dedup table concurrently. Writers reach a
	// frozen relation only through Database methods, which copy-on-write
	// the header first (see cowClone).
	frozen bool
	// lineage identifies the append-only tuple history this header belongs
	// to. Copy-on-write clones share it (their tuple slices are prefixes of
	// one another), while Clone and Reset start a fresh one. DiffSnapshots
	// relies on it: two headers with equal lineage differ exactly by the
	// tuples past the shorter header's length.
	lineage uint64
	// statsVer is the relation's statistics version: a globally unique stamp
	// taken whenever the column statistics materially change (BuildIndexes
	// publishing, or Insert's staleness rebuild folding overflow back into
	// the CSR body). Plan caches fold it into their keys so compiled
	// join orders computed against stale statistics are never served after
	// an index rebuild. Copy-on-write clones inherit it (their stats are the
	// same until their own rebuild). Zero means "never stamped".
	statsVer uint64
	// hashFn overrides hashWords in tests (collision handling coverage).
	hashFn func(Tuple) uint64
	// stats counts write-path work (see RelStats). Only writer-exclusive
	// operations touch it — plain increments, no atomics — so the
	// concurrent read phase stays untouched and allocation-free.
	stats RelStats
}

// RelStats counts the write-path work a relation has done since creation.
// All fields are updated only under the writer-exclusive operations of the
// concurrency contract (Insert, InsertAll, BuildIndexes, Reset); the
// concurrent read path (Contains, EachCol, ...) is never counted, so
// counting costs plain integer adds and no synchronization. Cumulative
// across Reset — the parallel engine's pooled buffers keep accumulating.
type RelStats struct {
	// Probes is the number of write-path membership probes (one per Insert).
	Probes int64
	// Duplicates is the number of Inserts that found the tuple present.
	Duplicates int64
	// Collisions is the number of occupied, non-matching hash slots walked
	// by write-path probes — the open-addressing clustering measure.
	Collisions int64
	// ArenaBytes is the number of bytes of value-arena capacity allocated.
	ArenaBytes int64
	// TableGrows is the number of membership-table rehashes.
	TableGrows int64
	// IndexBuilds is the number of CSR column-index (re)builds: lazy first
	// probes, BuildIndexes materializations, and staleness rebuilds after
	// overflow growth.
	IndexBuilds int64
}

// Add returns the field-wise sum, for aggregating over many relations.
func (s RelStats) Add(o RelStats) RelStats {
	return RelStats{
		Probes:      s.Probes + o.Probes,
		Duplicates:  s.Duplicates + o.Duplicates,
		Collisions:  s.Collisions + o.Collisions,
		ArenaBytes:  s.ArenaBytes + o.ArenaBytes,
		TableGrows:  s.TableGrows + o.TableGrows,
		IndexBuilds: s.IndexBuilds + o.IndexBuilds,
	}
}

// Stats returns the relation's write-path counters. Requires the same
// access as any read method (no concurrent writer).
func (r *Relation) Stats() RelStats { return r.stats }

// relLineage hands out lineage identifiers. A plain counter (not pointer
// identity) because zero-size sentinel allocations may share an address.
var relLineage atomic.Uint64

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, colIdx: make([]*colIndex, arity), lineage: relLineage.Add(1)}
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

func (r *Relation) hash(t Tuple) uint64 {
	if r.hashFn != nil {
		return r.hashFn(t)
	}
	return hashWords(t)
}

// find returns the position of t, or −1. Allocation-free.
func (r *Relation) find(t Tuple, h uint64) int {
	if len(r.table) == 0 {
		return -1
	}
	mask := h & uint64(len(r.table)-1)
	i := mask
	mask = uint64(len(r.table) - 1)
	for {
		e := r.table[i]
		if e == 0 {
			return -1
		}
		pos := int(e - 1)
		if r.tuples[pos].Equal(t) {
			return pos
		}
		i = (i + 1) & mask
	}
}

// findInsert is find for the write path: identical probe loop, plus
// collision accounting. Contains may run concurrently with other readers
// and must stay mutation-free, so the read path keeps the plain find.
func (r *Relation) findInsert(t Tuple, h uint64) int {
	if len(r.table) == 0 {
		return -1
	}
	mask := uint64(len(r.table) - 1)
	i := h & mask
	for {
		e := r.table[i]
		if e == 0 {
			return -1
		}
		pos := int(e - 1)
		if r.tuples[pos].Equal(t) {
			return pos
		}
		r.stats.Collisions++
		i = (i + 1) & mask
	}
}

// growTable rehashes every stored tuple into a doubled table.
func (r *Relation) growTable() {
	r.stats.TableGrows++
	size := len(r.table) * 2
	if size < 16 {
		size = 16
	}
	r.table = make([]uint32, size)
	mask := uint64(size - 1)
	for pos, t := range r.tuples {
		i := r.hash(t) & mask
		for r.table[i] != 0 {
			i = (i + 1) & mask
		}
		r.table[i] = uint32(pos + 1)
	}
}

// alloc copies t into the arena and returns the arena-backed header.
func (r *Relation) alloc(t Tuple) Tuple {
	k := r.arity
	if k == 0 {
		return Tuple{}
	}
	var b []Value
	if n := len(r.blocks); n > 0 {
		b = r.blocks[n-1]
	}
	if cap(b)-len(b) < k {
		size := minBlockTuples * k
		if n := len(r.blocks); n > 0 && 2*cap(r.blocks[n-1]) > size {
			size = 2 * cap(r.blocks[n-1])
		}
		if size > maxBlockValues && size > 2*k {
			size = maxBlockValues
			if size < k {
				size = k
			}
		}
		b = make([]Value, 0, size)
		r.blocks = append(r.blocks, b)
		r.stats.ArenaBytes += int64(size) * int64(valueBytes)
	}
	off := len(b)
	b = append(b, t...)
	r.blocks[len(r.blocks)-1] = b
	return b[off : off+k : off+k]
}

// Insert adds t (copied into the arena) and reports whether it was new.
// A duplicate insert performs no allocation: the arena copy happens only
// after the membership probe misses. Inserting a tuple of the wrong arity
// panics: that is always a programming error.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: insert arity %d into relation of arity %d", len(t), r.arity))
	}
	if r.frozen {
		panic("storage: Insert on a frozen relation (snapshot readers may alias it; write through the Database, which clones on write)")
	}
	h := r.hash(t)
	r.stats.Probes++
	if r.findInsert(t, h) >= 0 {
		r.stats.Duplicates++
		return false
	}
	if (len(r.tuples)+1)*4 >= len(r.table)*3 {
		r.growTable()
	}
	c := r.alloc(t)
	pos := len(r.tuples)
	r.tuples = append(r.tuples, c)
	mask := uint64(len(r.table) - 1)
	i := h & mask
	for r.table[i] != 0 {
		i = (i + 1) & mask
	}
	r.table[i] = uint32(pos + 1)
	for col, ci := range r.colIdx {
		if ci == nil {
			continue
		}
		ci.add(c[col], int32(pos))
		if ci.stale() {
			r.stats.IndexBuilds++
			r.colIdx[col] = buildColIndex(r.tuples, col)
			r.statsVer = statsVersion.Add(1)
		}
	}
	return true
}

// Contains reports membership. Allocation-free.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	return r.find(t, r.hash(t)) >= 0
}

// Tuples returns the tuple headers in insertion order. Callers must not
// mutate the slice or its elements. The returned snapshot stays valid while
// the relation grows: appends never move stored values.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// At returns the i-th tuple in insertion order. The header aliases the
// arena, so holding it does not pin a private copy — the frontier kernels
// use it to build delta slices without cloning.
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Each calls f for every tuple until f returns false.
func (r *Relation) Each(f func(Tuple) bool) {
	for _, t := range r.tuples {
		if !f(t) {
			return
		}
	}
}

// probeIndex returns the column's index, building it when the relation is
// still in its single-threaded lazy phase. After BuildIndexes the read path
// must not mutate under concurrent readers, so a missing index (which
// BuildIndexes makes impossible short of a reset) yields nil and the caller
// returns an empty result.
func (r *Relation) probeIndex(col int) *colIndex {
	ci := r.colIdx[col]
	if ci == nil && !r.published {
		r.stats.IndexBuilds++
		ci = buildColIndex(r.tuples, col)
		r.colIdx[col] = ci
	}
	return ci
}

// LookupCol returns the positions of tuples whose column col equals v,
// building the column index on first use (pre-BuildIndexes only). When v
// gained no tuples since the last index build the result is a view of the
// CSR positions array and no allocation happens.
func (r *Relation) LookupCol(col int, v Value) []int32 {
	ci := r.probeIndex(col)
	if ci == nil {
		return nil
	}
	return ci.lookup(v)
}

// EachCol calls f for every tuple whose column col equals v until f returns
// false, building the column index on first use (pre-BuildIndexes only). It
// is the single-column fast path of EachMatch, used by the frontier kernels
// for edge traversal; it never allocates.
func (r *Relation) EachCol(col int, v Value, f func(Tuple) bool) {
	ci := r.probeIndex(col)
	if ci == nil {
		return
	}
	// Iterate postings inline rather than through colIndex.each: wrapping f
	// in an adapter closure would force a heap allocation on every call.
	for _, pos := range ci.csrRange(v) {
		if !f(r.tuples[pos]) {
			return
		}
	}
	if ci.nextra == 0 {
		return
	}
	for _, pos := range ci.extra[v] {
		if !f(r.tuples[pos]) {
			return
		}
	}
}

// BuildIndexes materializes every column index now and freezes the read
// path: from here on, reads never build indexes lazily, so any number of
// goroutines may read the relation concurrently (as long as no writer
// runs). On an already-published relation it returns immediately without
// writing anything, so concurrent evaluations sharing a snapshot may all
// call it (the engines do, defensively) without racing.
func (r *Relation) BuildIndexes() {
	if r.published {
		return
	}
	for col := 0; col < r.arity; col++ {
		if r.colIdx[col] == nil {
			r.stats.IndexBuilds++
			r.colIdx[col] = buildColIndex(r.tuples, col)
		}
	}
	r.published = true
	r.statsVer = statsVersion.Add(1)
}

// Indexed reports whether every column index is materialized, i.e. whether
// the relation's read path is free of lazy index construction and therefore
// safe for concurrent readers.
func (r *Relation) Indexed() bool {
	for _, idx := range r.colIdx {
		if idx == nil {
			return false
		}
	}
	return true
}

// PartitionTuples splits a tuple slice into at most parts contiguous,
// near-equal chunks (fewer when the slice is shorter than parts). The
// chunks are views of the input slice: callers must not mutate them.
func PartitionTuples(tuples []Tuple, parts int) [][]Tuple {
	n := len(tuples)
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if n == 0 {
		return nil
	}
	out := make([][]Tuple, 0, parts)
	per := (n + parts - 1) / parts
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, tuples[lo:hi])
	}
	return out
}

// EachMatch calls f for each tuple matching the partial binding: bound[i]
// true means the tuple's column i must equal vals[i]. It picks the most
// selective bound column's index when one exists and scans otherwise.
func (r *Relation) EachMatch(bound []bool, vals Tuple, f func(Tuple) bool) {
	var bestIdx *colIndex
	best := -1
	bestLen := -1
	for col, b := range bound {
		if !b {
			continue
		}
		ci := r.probeIndex(col)
		if ci == nil {
			// Read-phase probe of an unbuilt column: defensively empty
			// rather than lazily mutating (see probeIndex).
			return
		}
		n := ci.count(vals[col])
		if best == -1 || n < bestLen {
			best, bestLen, bestIdx = col, n, ci
		}
	}
	if best == -1 {
		for _, t := range r.tuples {
			if !f(t) {
				return
			}
		}
		return
	}
	// Inline iteration keeps f and the binding check off the heap (see
	// EachCol).
	for _, pos := range bestIdx.csrRange(vals[best]) {
		t := r.tuples[pos]
		if matchBinding(bound, vals, t) && !f(t) {
			return
		}
	}
	if bestIdx.nextra == 0 {
		return
	}
	for _, pos := range bestIdx.extra[vals[best]] {
		t := r.tuples[pos]
		if matchBinding(bound, vals, t) && !f(t) {
			return
		}
	}
}

// matchBinding reports whether t satisfies the partial binding.
func matchBinding(bound []bool, vals, t Tuple) bool {
	for col, b := range bound {
		if b && t[col] != vals[col] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy (indexes are not copied).
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.arity)
	for _, t := range r.tuples {
		out.Insert(t)
	}
	return out
}

// Freeze marks the relation immutable: Insert and Reset panic from here on.
// Database.Snapshot freezes every relation it pins so that concurrent
// snapshot readers can never be corrupted by an in-place write, and the
// result cache freezes cached answer relations for the same reason. There
// is no Unfreeze: a header that was ever published to readers stays
// read-only forever, and writers get a fresh copy-on-write header instead.
// Freezing a frozen relation writes nothing: readers may already hold it.
func (r *Relation) Freeze() {
	if r.frozen {
		return
	}
	r.BuildIndexes()
	r.frozen = true
}

// Frozen reports whether the relation has been pinned by a snapshot (or
// otherwise frozen) and therefore refuses in-place writes.
func (r *Relation) Frozen() bool { return r.frozen }

// cowClone returns a writable header over the same stored tuples: the
// value-arena blocks and the tuple-header slice are shared (appends write
// only past the frozen length, which no reader of the frozen header can
// see), while the dedup table and the column indexes — which Insert mutates
// in place — are copied. This is the Database's copy-on-write step for
// writing "after" a snapshot: cost is O(table + arity) plus the index
// overflow maps, never the arena.
func (r *Relation) cowClone() *Relation {
	out := &Relation{
		arity:     r.arity,
		blocks:    append([][]Value(nil), r.blocks...),
		tuples:    r.tuples,
		table:     append([]uint32(nil), r.table...),
		colIdx:    make([]*colIndex, r.arity),
		published: r.published,
		statsVer:  r.statsVer,
		hashFn:    r.hashFn,
		stats:     r.stats,
		lineage:   r.lineage,
	}
	for i, ci := range r.colIdx {
		if ci != nil {
			out.colIdx[i] = ci.clone()
		}
	}
	return out
}

// CowClone returns a writable copy-on-write header over a frozen relation:
// the stored tuples are shared, inserts append past the frozen length. The
// incremental maintenance kernels use it to extend a cached answer relation
// without copying it. Only frozen relations may be cow-cloned — a mutable
// source could later append tuples the clone's shared slices would expose
// inconsistently.
func (r *Relation) CowClone() *Relation {
	if !r.frozen {
		panic("storage: CowClone of an unfrozen relation")
	}
	return r.cowClone()
}

// SizeBytes estimates the relation's resident memory: arena capacity, the
// membership table and the tuple headers, plus a fixed struct overhead.
// The result cache charges cached answers against its byte budget with it.
func (r *Relation) SizeBytes() int64 {
	n := int64(64)
	for _, b := range r.blocks {
		n += int64(cap(b)) * valueBytes
	}
	n += int64(len(r.table)) * 4
	n += int64(len(r.tuples)) * 24
	return n
}

// Reset empties the relation in place, re-arities it, and keeps the arena
// blocks and membership table capacity for reuse — the parallel engine
// pools task output buffers through it. Resetting requires exclusive
// access and unfreezes the read path (indexes build lazily again).
// Resetting a frozen relation panics: its arena blocks may be aliased by
// snapshot readers, and recycling them would overwrite tuples those readers
// still hold (refusal is the epoch-aware guard — writers needing a fresh
// relation after a snapshot allocate a new one instead).
func (r *Relation) Reset(arity int) {
	if r.frozen {
		panic("storage: Reset on a frozen relation (snapshot readers may alias its arena blocks)")
	}
	if arity != r.arity {
		r.arity = arity
		r.colIdx = make([]*colIndex, arity)
	} else {
		for i := range r.colIdx {
			r.colIdx[i] = nil
		}
	}
	r.tuples = r.tuples[:0]
	if n := len(r.blocks); n > 1 {
		// Keep only the largest (most recent) block.
		r.blocks[0] = r.blocks[n-1][:0]
		r.blocks = r.blocks[:1]
	} else if n == 1 {
		r.blocks[0] = r.blocks[0][:0]
	}
	for i := range r.table {
		r.table[i] = 0
	}
	r.published = false
	r.lineage = relLineage.Add(1)
}

// InsertAll inserts every tuple of o and returns the number of new tuples.
func (r *Relation) InsertAll(o *Relation) int {
	n := 0
	for _, t := range o.tuples {
		if r.Insert(t) {
			n++
		}
	}
	return n
}

// Equal reports set equality of two relations.
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity || len(r.tuples) != len(o.tuples) {
		return false
	}
	for _, t := range r.tuples {
		if !o.Contains(t) {
			return false
		}
	}
	return true
}

// Database maps predicate names to relations and shares one symbol table.
//
// Snapshot support: Snapshot() pins the current contents as an immutable,
// concurrently readable epoch (see snapshot.go). After a snapshot, the
// database remains writable — the first write to a pinned relation clones
// its header copy-on-write (sharing the arena blocks), so snapshot readers
// and the writer never touch the same mutable state. Snapshot and all
// mutating methods require the same exclusive access as Relation writes;
// the returned Snapshot itself needs no locking.
type Database struct {
	Syms *Symbols
	rels map[string]*Relation
	// epoch counts snapshots taken; 0 means never snapshotted. dirty marks
	// mutations since the last snapshot, so an unchanged database returns
	// the same Snapshot (same epoch — result caches key on it).
	epoch uint64
	dirty bool
	snap  *Snapshot
}

// NewDatabase returns an empty database with a fresh symbol table.
func NewDatabase() *Database {
	return &Database{Syms: NewSymbols(), rels: make(map[string]*Relation)}
}

// NewDatabaseWithSymbols returns an empty database sharing an existing
// symbol table — used for overlay databases that reference another
// database's relations.
func NewDatabaseWithSymbols(syms *Symbols) *Database {
	return &Database{Syms: syms, rels: make(map[string]*Relation)}
}

// Ensure returns the relation for pred, creating it with the given arity if
// absent, and ready for writes: a relation frozen by a live snapshot is
// replaced by its copy-on-write clone first. It returns an error if the
// existing arity differs. Ensure marks the database dirty (the next
// Snapshot call advances the epoch), since callers hold the result to
// insert into it.
func (db *Database) Ensure(pred string, arity int) (*Relation, error) {
	db.dirty = true
	if r, ok := db.rels[pred]; ok {
		if r.Arity() != arity {
			return nil, fmt.Errorf("storage: relation %s has arity %d, requested %d", pred, r.Arity(), arity)
		}
		if r.frozen {
			r = r.cowClone()
			db.rels[pred] = r
		}
		return r, nil
	}
	r := NewRelation(arity)
	db.rels[pred] = r
	return r, nil
}

// Rel returns the relation for pred, or nil when absent.
func (db *Database) Rel(pred string) *Relation { return db.rels[pred] }

// Set replaces the relation stored under pred.
func (db *Database) Set(pred string, r *Relation) {
	db.dirty = true
	db.rels[pred] = r
}

// Preds returns the sorted predicate names present.
func (db *Database) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for k := range db.rels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Insert interns the names and inserts the tuple into pred, creating the
// relation as needed. It reports whether the tuple was new.
func (db *Database) Insert(pred string, names ...string) (bool, error) {
	r, err := db.Ensure(pred, len(names))
	if err != nil {
		return false, err
	}
	t := make(Tuple, len(names))
	for i, n := range names {
		t[i] = db.Syms.Intern(n)
	}
	return r.Insert(t), nil
}

// InsertValues inserts already-interned values into pred.
func (db *Database) InsertValues(pred string, vals ...Value) (bool, error) {
	r, err := db.Ensure(pred, len(vals))
	if err != nil {
		return false, err
	}
	return r.Insert(Tuple(vals)), nil
}

// BuildIndexes materializes all column indexes of every relation, making
// the database safe for concurrent readers.
func (db *Database) BuildIndexes() {
	for _, r := range db.rels {
		r.BuildIndexes()
	}
}

// Clone deep-copies the database. The symbol table is shared (symbols are
// append-only, so sharing is safe for concurrent readers of existing names).
func (db *Database) Clone() *Database {
	out := &Database{Syms: db.Syms, rels: make(map[string]*Relation, len(db.rels))}
	for k, r := range db.rels {
		out.rels[k] = r.Clone()
	}
	return out
}

// Dump renders a relation's tuples deterministically for tests and tools.
func (db *Database) Dump(pred string) string {
	r := db.rels[pred]
	if r == nil {
		return pred + ": <absent>\n"
	}
	lines := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = db.Syms.Name(v)
		}
		lines = append(lines, pred+"("+strings.Join(parts, ", ")+")")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
