package dataflow

import (
	"testing"
)

func TestUnionDiff(t *testing.T) {
	s := NewBitSet(130)
	u := NewBitSet(130)
	v := NewBitSet(130)
	s.Set(1)
	u.Set(1)
	u.Set(64)
	u.Set(129)
	v.Set(64)
	s.UnionDiff(u, v) // s ∪= u ∖ v = {1, 129}
	want := NewBitSet(130)
	want.Set(1)
	want.Set(129)
	if !s.Equal(want) {
		t.Fatalf("UnionDiff = %v, want %v", s, want)
	}
}

// TestBitSetFamilyIsolated checks that the members of one bulk family
// share no bits: writing every word of member i, including the tail
// word holding element n-1, leaves both neighbours empty and i's
// count exact.
func TestBitSetFamilyIsolated(t *testing.T) {
	const nb = 3
	for _, n := range []int{0, 1, 63, 64, 65} {
		fam := NewBitSetFamily(nb, n)
		if len(fam) != nb {
			t.Fatalf("n=%d: family has %d members, want %d", n, len(fam), nb)
		}
		full := NewBitSet(n)
		full.SetAll()
		i := 1
		fam[i].SetAll()
		fam[i].Union(full)
		fam[i].CopyFrom(full)
		if n > 0 {
			fam[i].Set(n - 1)
		}
		for _, j := range []int{i - 1, i + 1} {
			if fam[j].Len() != n || !fam[j].Empty() || fam[j].Count() != 0 {
				t.Errorf("n=%d: neighbour %d = %v (len %d), want empty", n, j, fam[j], fam[j].Len())
			}
		}
		if got := fam[i].Count(); got != n {
			t.Errorf("n=%d: Count = %d, want %d", n, got, n)
		}
		if !fam[i].Equal(full) {
			t.Errorf("n=%d: member %v != NewBitSet+SetAll %v", n, fam[i], full)
		}
	}
}

func benchSets(n int) (*BitSet, *BitSet) {
	a, b := NewBitSet(n), NewBitSet(n)
	for i := 0; i < n; i += 3 {
		a.Set(i)
	}
	for i := 0; i < n; i += 7 {
		b.Set(i)
	}
	return a, b
}

func BenchmarkBitSetUnion(b *testing.B) {
	x, y := benchSets(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Union(y)
	}
}

func BenchmarkBitSetIntersect(b *testing.B) {
	x, y := benchSets(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkBitSetForEach(b *testing.B) {
	x, _ := benchSets(1024)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(e int) { sum += e })
	}
	_ = sum
}
