package kernel

import (
	"slices"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
)

// Replay is what a memoised comparison step hands back when the same
// comparison asks for it again: the score and transform the step
// produced (zero where it produces none) and the exact operations it
// charged.
type Replay struct {
	Score float64
	T     geom.Transform
	Ops   costmodel.Counter
}

// Trajectory is what a TM-score search records for an extension index
// set: how many steps the trajectory from it took to converge (0 while
// unknown) and the operations those steps charged.
type Trajectory struct {
	Steps int
	Ops   costmodel.Counter
}

// Memo maps []int keys to values of type V, each with an optional []int
// payload. Keys and payloads live back to back in one flat arena and
// the entries in an open-addressed table, so a warm Memo allocates
// nothing: Reset empties it in O(1) by bumping a generation stamp and
// keeps every buffer's capacity. Lookups compare the whole key, so a
// hash collision can never alias two entries.
//
// The zero value is ready to use. A Memo is not safe for concurrent
// use.
type Memo[V any] struct {
	arena []int
	ents  []memoEntry[V]
	slots []memoSlot
	gen   uint32
}

type memoEntry[V any] struct {
	hash     uint64
	off, n   int32 // key: arena[off : off+n]
	dOff, dN int32 // payload: arena[dOff : dOff+dN]
	val      V
}

// memoSlot is one hash-table cell; it is occupied only while its gen
// equals the Memo's.
type memoSlot struct {
	gen uint32
	ent int32
}

// Reset empties the memo, keeping its capacity.
func (m *Memo[V]) Reset() {
	m.arena = m.arena[:0]
	m.ents = m.ents[:0]
	m.gen++
	if m.gen == 0 {
		clear(m.slots)
		m.gen = 1
	}
}

// Find returns the index of key's entry and whether the key was already
// present. An absent key is inserted with a zero value for the caller to
// fill through Val; the key slice is copied and may be reused.
func (m *Memo[V]) Find(key []int) (int, bool) {
	if 2*(len(m.ents)+1) > len(m.slots) {
		m.grow()
	}
	h := hashKey(key)
	mask := len(m.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.gen != m.gen {
			e := len(m.ents)
			off := len(m.arena)
			m.arena = append(m.arena, key...)
			m.ents = append(m.ents, memoEntry[V]{hash: h, off: int32(off), n: int32(len(key))})
			*s = memoSlot{gen: m.gen, ent: int32(e)}
			return e, false
		}
		en := &m.ents[s.ent]
		if en.hash == h && slices.Equal(m.arena[en.off:en.off+en.n], key) {
			return int(s.ent), true
		}
	}
}

// Val returns entry i's value. The pointer is valid until the next Find
// or Reset.
func (m *Memo[V]) Val(i int) *V { return &m.ents[i].val }

// SetData copies d into the arena as entry i's payload.
func (m *Memo[V]) SetData(i int, d []int) {
	e := &m.ents[i]
	e.dOff, e.dN = int32(len(m.arena)), int32(len(d))
	m.arena = append(m.arena, d...)
}

// Data returns entry i's payload (empty until SetData). The slice
// aliases the arena and is valid until the next Reset.
func (m *Memo[V]) Data(i int) []int {
	e := &m.ents[i]
	return m.arena[e.dOff : e.dOff+e.dN]
}

// grow doubles the hash table (256 slots at first) and re-inserts the
// live entries.
func (m *Memo[V]) grow() {
	n := 2 * len(m.slots)
	if n == 0 {
		n = 256
	}
	if m.gen == 0 {
		m.gen = 1
	}
	m.slots = make([]memoSlot, n)
	mask := n - 1
	for e := range m.ents {
		i := int(m.ents[e].hash) & mask
		for m.slots[i].gen == m.gen {
			i = (i + 1) & mask
		}
		m.slots[i] = memoSlot{gen: m.gen, ent: int32(e)}
	}
}

func hashKey(key []int) uint64 {
	h := uint64(len(key)) * 0x9e3779b97f4a7c15
	for _, k := range key {
		h ^= uint64(k)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// AppendRuns appends a compact, exactly invertible encoding of v to dst:
// one (first, length) pair per maximal run, where a run starting at a
// non-negative value counts up by one per element and a run starting at
// a negative value repeats it. A sorted index set or an alignment map
// (-1 = unaligned) of a few contiguous stretches encodes in a few words,
// and equal encodings imply equal slices.
func AppendRuns(dst, v []int) []int {
	for k := 0; k < len(v); {
		first := v[k]
		n := 1
		if first < 0 {
			for k+n < len(v) && v[k+n] == first {
				n++
			}
		} else {
			for k+n < len(v) && v[k+n] == first+n {
				n++
			}
		}
		dst = append(dst, first, n)
		k += n
	}
	return dst
}

// DecodeRuns appends the slice AppendRuns encoded as enc to dst.
func DecodeRuns(dst, enc []int) []int {
	for k := 0; k+1 < len(enc); k += 2 {
		first, n := enc[k], enc[k+1]
		for i := 0; i < n; i++ {
			if first < 0 {
				dst = append(dst, first)
			} else {
				dst = append(dst, first+i)
			}
		}
	}
	return dst
}
