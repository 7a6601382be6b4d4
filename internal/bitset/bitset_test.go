package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	s := New(130)
	if got := s.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	if got := s.Len(); got != 130 {
		t.Fatalf("Len = %d, want 130", got)
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(200)
	vals := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, v := range vals {
		s.Add(v)
	}
	for _, v := range vals {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false after Add", v)
		}
	}
	if s.Contains(2) || s.Contains(100) {
		t.Error("Contains reports absent values present")
	}
	if got := s.Count(); got != len(vals) {
		t.Fatalf("Count = %d, want %d", got, len(vals))
	}
	for _, v := range vals {
		s.Remove(v)
	}
	if s.Count() != 0 {
		t.Fatalf("set not empty after removing all: %v", s)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count after double Add = %d, want 1", got)
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Error("Contains must report out-of-range values as absent")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	New(4).Add(-1)
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UnionWith across capacities did not panic")
		}
	}()
	New(4).UnionWith(New(8))
}

func TestUnionWith(t *testing.T) {
	a := fromSlice(100, []int{1, 2, 3, 64, 65})
	b := fromSlice(100, []int{3, 4, 65, 99})
	a.UnionWith(b)
	if got, want := a.Slice(), []int{1, 2, 3, 4, 64, 65, 99}; !reflect.DeepEqual(got, want) {
		t.Errorf("union = %v, want %v", got, want)
	}
}

func TestEqualAndSubset(t *testing.T) {
	a := fromSlice(64, []int{1, 2})
	b := fromSlice(64, []int{1, 2})
	c := fromSlice(64, []int{1, 2, 3})
	if !a.Equal(b) {
		t.Error("identical sets not Equal")
	}
	if a.Equal(c) {
		t.Error("different sets Equal")
	}
	if a.Equal(fromSlice(65, []int{1, 2})) {
		t.Error("sets of different capacity must not be Equal")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := fromSlice(100, []int{5, 1, 99, 64})
	var got []int
	s.ForEach(func(v int) bool {
		got = append(got, v)
		return true
	})
	if want := []int{1, 5, 64, 99}; !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach order = %v, want %v", got, want)
	}
	n := 0
	s.ForEach(func(v int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := fromSlice(32, []int{1})
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Error("mutating clone affected original")
	}
}

func TestCopyFrom(t *testing.T) {
	a := fromSlice(32, []int{1, 5})
	b := New(32)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Error("CopyFrom did not produce equal set")
	}
}

func TestClear(t *testing.T) {
	a := fromSlice(32, []int{1, 5, 31})
	a.Clear()
	if a.Count() != 0 {
		t.Error("Clear left elements behind")
	}
	if a.Len() != 32 {
		t.Error("Clear changed capacity")
	}
}

func TestString(t *testing.T) {
	if got := fromSlice(10, []int{3, 1}).String(); got != "{1 3}" {
		t.Errorf("String = %q, want {1 3}", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("String of empty = %q, want {}", got)
	}
}

// randomPair builds two random same-capacity sets from a seed, for property
// tests.
func randomPair(seed int64) (*Set, *Set, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(300)
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Add(i)
		}
		if rng.Intn(2) == 0 {
			b.Add(i)
		}
	}
	return a, b, n
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		a, b, _ := randomPair(seed)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		a, b, _ := randomPair(seed)
		u := a.Clone()
		u.UnionWith(b)
		both := 0
		a.ForEach(func(v int) bool {
			if b.Contains(v) {
				both++
			}
			return true
		})
		return u.Count() == a.Count()+b.Count()-both
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSliceRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		a, _, n := randomPair(seed)
		return fromSlice(n, a.Slice()).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	a1, a2, _ := randomPair(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a1.UnionWith(a2)
	}
}

// fromSlice builds a set of capacity n containing every value in vs.
func fromSlice(n int, vs []int) *Set {
	s := New(n)
	for _, v := range vs {
		s.Add(v)
	}
	return s
}
