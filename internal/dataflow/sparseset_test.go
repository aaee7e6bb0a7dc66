package dataflow

import (
	"slices"
	"testing"
)

// members returns the set's elements in ascending order.
func members(s *SparseSet) []int {
	var out []int
	for _, x := range s.Members() {
		out = append(out, int(x))
	}
	slices.Sort(out)
	return out
}

func TestSparseSet(t *testing.T) {
	s := NewSparseSet(100)
	if s.Len() != 0 || s.Has(0) || s.Has(99) {
		t.Fatalf("new set not empty: %v", members(s))
	}
	for _, x := range []int{7, 0, 99, 42, 7} {
		s.Add(x)
	}
	if got, want := members(s), []int{0, 7, 42, 99}; !slices.Equal(got, want) {
		t.Fatalf("after adds: %v, want %v (duplicate add must not grow the set)", got, want)
	}
	s.Remove(0) // the first slot: the last member moves into it
	s.Remove(5) // absent: no-op
	if got, want := members(s), []int{7, 42, 99}; !slices.Equal(got, want) {
		t.Fatalf("after removes: %v, want %v", got, want)
	}
	if s.Has(0) || !s.Has(99) || !s.Has(42) {
		t.Fatal("membership wrong after remove")
	}
	s.Remove(99) // the last slot
	s.Remove(7)
	s.Remove(42)
	if s.Len() != 0 || s.Has(42) {
		t.Fatalf("not empty after removing everything: %v", members(s))
	}

	// Clear leaves stale sparse slots behind; reuse must not see them.
	for x := 0; x < 100; x += 3 {
		s.Add(x)
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("Len after Clear = %d", s.Len())
	}
	for x := 0; x < 100; x++ {
		if s.Has(x) {
			t.Fatalf("Has(%d) after Clear", x)
		}
	}
	s.Add(50)
	s.Add(3)
	if got, want := members(s), []int{3, 50}; !slices.Equal(got, want) {
		t.Fatalf("reuse after Clear: %v, want %v", got, want)
	}
	if s.Has(0) || s.Has(6) || s.Has(51) {
		t.Fatal("a stale slot answered after Clear")
	}
}
