// Package dataflow provides the dense bitset type and the iterative
// dataflow analyses (liveness, availability, anticipability) that the
// optimization passes share.
package dataflow

import (
	"math/bits"
	"strconv"
	"strings"
)

// BitSet is a fixed-capacity dense bit vector.  All binary operations
// require operands of identical capacity.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set with capacity for n elements.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// NewBitSetFamily returns nb independent empty capacity-n sets backed
// by three bulk allocations (the headers, one flat word array, and the
// pointer table) instead of nb separate NewBitSet calls.  The members
// are ordinary BitSets in every observable way; their word slices are
// disjoint, capacity-capped views of the shared backing.
func NewBitSetFamily(nb, n int) []*BitSet {
	w := (n + 63) / 64
	hdrs := make([]BitSet, nb)
	words := make([]uint64, nb*w)
	ptrs := make([]*BitSet, nb)
	for i := range hdrs {
		hdrs[i] = BitSet{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		ptrs[i] = &hdrs[i]
	}
	return ptrs
}

// Len returns the set's capacity.
func (s *BitSet) Len() int { return s.n }

// Set adds element i.
func (s *BitSet) Set(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Clear removes element i.
func (s *BitSet) Clear(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether element i is in the set.
func (s *BitSet) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll adds every element in [0, Len).
func (s *BitSet) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// ClearAll empties the set.
func (s *BitSet) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the bits beyond capacity so Equal and Count stay exact.
func (s *BitSet) trim() {
	if extra := s.n & 63; extra != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(extra)) - 1
	}
}

// Copy returns an independent duplicate of the set.
func (s *BitSet) Copy() *BitSet {
	return &BitSet{words: append([]uint64(nil), s.words...), n: s.n}
}

// CopyFrom overwrites s with t's contents.
func (s *BitSet) CopyFrom(t *BitSet) {
	copy(s.words, t.words)
}

// Union adds every element of t; it reports whether s changed.
func (s *BitSet) Union(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect keeps only the elements also in t; reports whether s changed.
func (s *BitSet) Intersect(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] & w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// UnionDiff adds every element of t that is not in u — s ∪= (t ∖ u) —
// without materializing the difference.  The dataflow solvers use it
// for terms like LATERIN(i) ∩ ¬ANTLOC(i) that would otherwise cost a
// temporary vector per edge per iteration.
func (s *BitSet) UnionDiff(t, u *BitSet) {
	for i, w := range t.words {
		s.words[i] |= w &^ u.words[i]
	}
}

// Subtract removes every element of t; reports whether s changed.
func (s *BitSet) Subtract(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] &^ w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports whether the two sets hold exactly the same elements.
func (s *BitSet) Equal(t *BitSet) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of elements in the set.
func (s *BitSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order.
func (s *BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// String renders the set as {1, 5, 9} for debugging.
func (s *BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}
