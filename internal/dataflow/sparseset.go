package dataflow

// SparseSet is a set over the integers [0, n) in the representation of
// Briggs and Torczon ("An efficient representation for sparse sets",
// LOPLAS 1993): a dense array of members and a sparse array mapping
// each element to its slot in the dense one.  Add, Remove and Has are
// O(1); Clear is O(1), so one set sized to a function's register
// namespace serves every block of a walk without being re-zeroed; and
// iteration costs the number of members, not the capacity.
type SparseSet struct {
	dense  []int32
	sparse []int32
}

// NewSparseSet returns an empty set over [0, n).
func NewSparseSet(n int) *SparseSet {
	return &SparseSet{dense: make([]int32, 0, n), sparse: make([]int32, n)}
}

// Has reports whether i is in the set.  The sparse slot of an element
// never added may hold anything; the cross-check against the dense
// array makes stale slots harmless.
func (s *SparseSet) Has(i int) bool {
	j := s.sparse[i]
	return int(j) < len(s.dense) && s.dense[j] == int32(i)
}

// Add inserts i.
func (s *SparseSet) Add(i int) {
	if s.Has(i) {
		return
	}
	s.sparse[i] = int32(len(s.dense))
	s.dense = append(s.dense, int32(i))
}

// Remove deletes i, moving the last member into its slot.
func (s *SparseSet) Remove(i int) {
	if !s.Has(i) {
		return
	}
	j := s.sparse[i]
	last := s.dense[len(s.dense)-1]
	s.dense[j] = last
	s.sparse[last] = j
	s.dense = s.dense[:len(s.dense)-1]
}

// Clear empties the set in O(1).
func (s *SparseSet) Clear() { s.dense = s.dense[:0] }

// Len returns the number of members.
func (s *SparseSet) Len() int { return len(s.dense) }

// Members returns the members in insertion order (as permuted by
// Remove).  The slice aliases the set: it is valid until the next
// mutation and must not be written.
func (s *SparseSet) Members() []int32 { return s.dense }
