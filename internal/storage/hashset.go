package storage

// Allocation-free hashing for the tuple store. Tuples are hashed word by
// word (each Value is one 32-bit word) into a 64-bit code; membership is an
// open-addressing table of tuple positions, so neither Insert nor Contains
// allocates or materializes a string key. Collisions are resolved by linear
// probing plus a full value comparison against the arena, so a weak (or, in
// tests, deliberately constant) hash function only costs probes, never
// correctness.

const (
	hashSeed uint64 = 0x9e3779b97f4a7c15
	hashM1   uint64 = 0xff51afd7ed558ccd
	hashM2   uint64 = 0xc4ceb9fe1a85ec53
)

// hashWords folds the tuple's value words into a 64-bit hash. The final
// fmix64 avalanche matters: the membership table and the value set index
// with the low bits only.
func hashWords(t []Value) uint64 {
	h := hashSeed ^ uint64(len(t))*hashM1
	for _, v := range t {
		h ^= uint64(uint32(v))
		h *= hashM1
	}
	return fmix64(h)
}

// fmix64 is the 64-bit finalizer of MurmurHash3.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= hashM1
	h ^= h >> 29
	h *= hashM2
	h ^= h >> 32
	return h
}

// fmix32 is the 32-bit finalizer of MurmurHash3, used by ValueSet.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// ValueSet is an open-addressing set of interned values (which are always
// non-negative; negative values are reserved as the empty slot marker). The
// frontier kernels use it for BFS visited sets: Add and Contains never
// allocate once the table has room.
type ValueSet struct {
	table []Value // -1 marks an empty slot
	n     int
}

// NewValueSet returns a set pre-sized for about hint values.
func NewValueSet(hint int) *ValueSet {
	size := 16
	for size*3 < hint*4 {
		size *= 2
	}
	s := &ValueSet{table: make([]Value, size)}
	for i := range s.table {
		s.table[i] = -1
	}
	return s
}

// Len returns the number of values in the set.
func (s *ValueSet) Len() int { return s.n }

// Contains reports membership. Negative values are never members.
func (s *ValueSet) Contains(v Value) bool {
	if v < 0 || len(s.table) == 0 {
		return false
	}
	mask := uint32(len(s.table) - 1)
	i := fmix32(uint32(v)) & mask
	for {
		e := s.table[i]
		if e == v {
			return true
		}
		if e < 0 {
			return false
		}
		i = (i + 1) & mask
	}
}

// Add inserts v and reports whether it was new. v must be non-negative (an
// interned value).
func (s *ValueSet) Add(v Value) bool {
	if v < 0 {
		panic("storage: ValueSet.Add of negative value")
	}
	if len(s.table) == 0 || (s.n+1)*4 >= len(s.table)*3 {
		s.grow()
	}
	mask := uint32(len(s.table) - 1)
	i := fmix32(uint32(v)) & mask
	for {
		e := s.table[i]
		if e == v {
			return false
		}
		if e < 0 {
			s.table[i] = v
			s.n++
			return true
		}
		i = (i + 1) & mask
	}
}

func (s *ValueSet) grow() {
	size := len(s.table) * 2
	if size < 16 {
		size = 16
	}
	old := s.table
	s.table = make([]Value, size)
	for i := range s.table {
		s.table[i] = -1
	}
	mask := uint32(size - 1)
	for _, v := range old {
		if v < 0 {
			continue
		}
		i := fmix32(uint32(v)) & mask
		for s.table[i] >= 0 {
			i = (i + 1) & mask
		}
		s.table[i] = v
	}
}

// Clone returns an independent copy of the set.
func (s *ValueSet) Clone() *ValueSet {
	return &ValueSet{table: append([]Value(nil), s.table...), n: s.n}
}

// SizeBytes estimates the set's resident memory (result-cache accounting).
func (s *ValueSet) SizeBytes() int64 { return 32 + int64(len(s.table))*valueBytes }

// Each calls f for every value in the set (in table order) until f returns
// false.
func (s *ValueSet) Each(f func(Value) bool) {
	for _, v := range s.table {
		if v >= 0 && !f(v) {
			return
		}
	}
}
