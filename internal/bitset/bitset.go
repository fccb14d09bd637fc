// Package bitset provides a dense, fixed-capacity bit set used for
// reachability (transitive closure) computations on DAGs.
//
// The zero value of Set is an empty set of capacity zero; use New to
// allocate a set able to hold n elements. All operations that combine
// two sets require them to have the same capacity.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over the universe [0, n).
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{n: n, words: make([]uint64, WordsFor(n))}
}

// WordsFor returns the number of backing words a set of capacity n
// needs, for callers that provide their own storage via Wrap.
func WordsFor(n int) int {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return (n + wordBits - 1) / wordBits
}

// Carve returns count empty sets of capacity n whose words are carved
// from one backing array: a whole closure costs three allocations (the
// words, the set headers and the pointers) instead of two per set.
func Carve(count, n int) []*Set {
	wpn := WordsFor(n)
	words := make([]uint64, count*wpn)
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range sets {
		if uint(wpn) > uint(len(words)) {
			break // unreachable: words holds count windows of wpn
		}
		sets[i] = Set{n: n, words: words[:wpn:wpn]}
		words = words[wpn:]
		out[i] = &sets[i]
	}
	return out
}

// Wrap returns a set of capacity n backed by the caller's word slice,
// whose length must be exactly WordsFor(n). The set is returned by
// value so that scratch-backed sets (see internal/arena) cost no
// allocation; the contents of words are kept, so callers wanting an
// empty set must pass zeroed storage. The set aliases words: it is
// only valid as long as the backing storage is.
func Wrap(n int, words []uint64) Set {
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitset: Wrap needs %d words for capacity %d, got %d", WordsFor(n), n, len(words)))
	}
	return Set{n: n, words: words}
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Union sets s = s ∪ t and reports whether s changed.
func (s *Set) Union(t *Set) bool {
	s.compat(t)
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect sets s = s ∩ t.
func (s *Set) Intersect(t *Set) {
	s.compat(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Subtract sets s = s \ t.
func (s *Set) Subtract(t *Set) {
	s.compat(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersects reports whether s ∩ t is non-empty.
func (s *Set) Intersects(t *Set) bool {
	s.compat(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// CopyFrom overwrites s with the contents of t.
func (s *Set) CopyFrom(t *Set) {
	s.compat(t)
	copy(s.words, t.words)
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes every element.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Next returns the smallest element of the set that is at least i, or
// -1 if there is none. Iterating with it needs no callback:
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	wi := uint(i) / wordBits
	if wi >= uint(len(s.words)) {
		return -1
	}
	if w := s.words[wi] >> (uint(i) % wordBits); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < uint(len(s.words)); wi++ {
		if w := s.words[wi]; w != 0 {
			return int(wi)*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls f for each element of the set in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as {a, b, c}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) compat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}
