// Package bitset provides a dense, fixed-capacity bit set keyed by small
// non-negative integers.
//
// CARD leans on it for membership ("does the source lie in this
// candidate's neighborhood?") and unions ("the neighborhoods of every
// contact reachable within D levels"). Neighborhoods
// are sets of node indices in [0, N) with N at most a few thousand, so a
// word-packed bit set gives O(N/64) unions and O(1) membership with zero
// allocation on lookups.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bit set over the universe [0, Len()). The zero value is an empty
// set of capacity zero; use New to create one with a given capacity.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for values in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set (the size of its universe), not the
// number of elements; see Count for the latter.
func (s *Set) Len() int { return s.n }

// Add inserts v. It panics if v is outside [0, Len()).
func (s *Set) Add(v int) {
	s.check(v)
	s.words[v/wordBits] |= 1 << uint(v%wordBits)
}

// Remove deletes v if present. It panics if v is outside [0, Len()).
func (s *Set) Remove(v int) {
	s.check(v)
	s.words[v/wordBits] &^= 1 << uint(v%wordBits)
}

// Contains reports whether v is a member. Values outside [0, Len()) are
// reported as absent rather than panicking, because callers frequently probe
// with ids drawn from a wider universe (e.g. sentinel -1).
func (s *Set) Contains(v int) bool {
	if v < 0 || v >= s.n {
		return false
	}
	return s.words[v/wordBits]&(1<<uint(v%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every value in [0, Len()) — the complement of Clear. Bits
// beyond the capacity stay zero, so Count, ForEach and Words stay exact.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(rem)) - 1
	}
}

// Words exposes the backing word array (bit v lives at words[v/64], bit
// v%64). Read-only: callers iterate set bits without the per-element
// closure cost of ForEach on hot paths. Bits at index >= Len() are zero.
func (s *Set) Words() []uint64 { return s.words }

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. The sets must share capacity.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

// UnionWith adds every element of o to s (s |= o).
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Equal reports whether s and o contain exactly the same elements. Sets of
// different capacity are never equal.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order. Iteration stops if fn
// returns false.
func (s *Set) ForEach(fn func(v int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// String renders the set as "{a b c}"; useful in tests and traces.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%d", v)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

func (s *Set) check(v int) {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("bitset: value %d out of range [0,%d)", v, s.n))
	}
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}
