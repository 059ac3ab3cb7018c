package storage

// CSR-style column indexes. A built index groups the positions of every
// tuple by the value in one column into two flat arrays — offsets and
// positions — built in one counting pass, instead of the map[Value][]int
// posting lists of the original representation (one slice header plus
// repeated append growth per distinct value). When the value domain of the
// column is compact the offsets array is addressed by value directly
// ("dense"); otherwise a value→key map picks the posting range ("sparse").
//
// Inserts after a build do not disturb the CSR arrays (readers may hold
// posting slices): new positions go to a small per-value overflow, and the
// whole index is rebuilt — under the writer's exclusive access — once the
// overflow exceeds half the built prefix (stale). There is no explicit
// compaction.

type colIndex struct {
	// CSR body covering tuple positions [0, built).
	offsets   []int32
	positions []int32
	built     int32
	// Dense addressing: postings of value v live at offsets[v-lo : v-lo+2).
	dense  bool
	lo, hi Value
	// Sparse addressing: key = sparse[v] indexes offsets.
	sparse map[Value]int32
	// Overflow for positions >= built, merged back on rebuild.
	extra  map[Value][]int32
	nextra int
	// Column statistics over the built prefix, computed during the build's
	// counting pass so they are free to read afterwards: distinct is the
	// number of non-empty buckets, maxBucket the largest bucket (the
	// worst-case fan-out of a bound probe on this column). Overflow inserts
	// are accounted for by the readers (ColStats), not here.
	distinct  int32
	maxBucket int32
}

// buildColIndex builds the CSR index of column col over the tuples.
func buildColIndex(tuples []Tuple, col int) *colIndex {
	ci := &colIndex{built: int32(len(tuples))}
	n := len(tuples)
	if n == 0 {
		// Empty dense range: lo > hi makes every probe miss.
		ci.dense, ci.lo, ci.hi = true, 0, -1
		ci.offsets = []int32{0}
		return ci
	}
	lo, hi := tuples[0][col], tuples[0][col]
	for _, t := range tuples {
		if v := t[col]; v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	span := int64(hi) - int64(lo) + 1
	ci.positions = make([]int32, n)
	if span <= int64(4*n+64) {
		// Dense: one counting pass addressed by value.
		ci.dense, ci.lo, ci.hi = true, lo, hi
		ci.offsets = make([]int32, span+1)
		for _, t := range tuples {
			ci.offsets[t[col]-lo+1]++
		}
		for i := int64(1); i <= span; i++ {
			ci.offsets[i] += ci.offsets[i-1]
		}
		cur := make([]int32, span)
		copy(cur, ci.offsets[:span])
		for pos, t := range tuples {
			k := t[col] - lo
			ci.positions[cur[k]] = int32(pos)
			cur[k]++
		}
		for i := int64(0); i < span; i++ {
			if sz := ci.offsets[i+1] - ci.offsets[i]; sz > 0 {
				ci.distinct++
				if sz > ci.maxBucket {
					ci.maxBucket = sz
				}
			}
		}
		return ci
	}
	// Sparse: assign dense key ids in first-seen order, then the same
	// counting pass over key ids.
	ci.sparse = make(map[Value]int32)
	counts := make([]int32, 0, 16)
	for _, t := range tuples {
		v := t[col]
		k, ok := ci.sparse[v]
		if !ok {
			k = int32(len(counts))
			ci.sparse[v] = k
			counts = append(counts, 0)
		}
		counts[k]++
	}
	ci.offsets = make([]int32, len(counts)+1)
	ci.distinct = int32(len(counts))
	for i, c := range counts {
		ci.offsets[i+1] = ci.offsets[i] + c
		if c > ci.maxBucket {
			ci.maxBucket = c
		}
	}
	cur := make([]int32, len(counts))
	copy(cur, ci.offsets[:len(counts)])
	for pos, t := range tuples {
		k := ci.sparse[t[col]]
		ci.positions[cur[k]] = int32(pos)
		cur[k]++
	}
	return ci
}

// csrRange returns the built posting range for v (excluding overflow).
func (ci *colIndex) csrRange(v Value) []int32 {
	if ci.dense {
		if v < ci.lo || v > ci.hi {
			return nil
		}
		k := int64(v) - int64(ci.lo)
		return ci.positions[ci.offsets[k]:ci.offsets[k+1]]
	}
	k, ok := ci.sparse[v]
	if !ok {
		return nil
	}
	return ci.positions[ci.offsets[k]:ci.offsets[k+1]]
}

// clone returns a copy safe for an independent writer. The CSR body
// (offsets, positions) and the sparse key map are immutable after build —
// inserts only touch the overflow, and a rebuild replaces the whole index —
// so they are shared; only the overflow map is copied (its slices are
// shared too: append grows past the frozen length, which no reader of the
// original can see).
func (ci *colIndex) clone() *colIndex {
	out := *ci
	if ci.extra != nil {
		out.extra = make(map[Value][]int32, len(ci.extra))
		for v, ps := range ci.extra {
			out.extra[v] = ps
		}
	}
	return &out
}

// add records a newly inserted tuple position in the overflow.
func (ci *colIndex) add(v Value, pos int32) {
	if ci.extra == nil {
		ci.extra = make(map[Value][]int32)
	}
	ci.extra[v] = append(ci.extra[v], pos)
	ci.nextra++
}

// stale reports whether the overflow has outgrown the built prefix enough
// that the writer should fold it back into a fresh CSR build.
func (ci *colIndex) stale() bool {
	return ci.nextra > int(ci.built)/2+64
}

// count returns the number of positions whose column value is v.
func (ci *colIndex) count(v Value) int {
	n := len(ci.csrRange(v))
	if ci.nextra > 0 {
		n += len(ci.extra[v])
	}
	return n
}

// lookup returns every position whose column value is v. When v has no
// overflow the returned slice is a view of the CSR positions array (no
// allocation); otherwise a merged copy is returned.
func (ci *colIndex) lookup(v Value) []int32 {
	base := ci.csrRange(v)
	if ci.nextra == 0 {
		return base
	}
	ext := ci.extra[v]
	if len(ext) == 0 {
		return base
	}
	out := make([]int32, 0, len(base)+len(ext))
	out = append(out, base...)
	return append(out, ext...)
}
