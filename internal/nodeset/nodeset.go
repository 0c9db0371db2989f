// Package nodeset provides a compact bitset of compute-node IDs.
//
// Node sets are the allocation currency of the cluster: every allocation,
// reservation, and loan is an explicit set of node IDs rather than a bare
// count. Carrying identity is what lets the mechanisms implement the paper's
// "return leased nodes to the lender" semantics exactly — an on-demand job
// returns the very nodes it borrowed from each preempted or shrunk job.
//
// A set stores only the span of 64-bit words it occupies (a word offset plus
// the words from there on), so a 4-node job on a 131072-node cluster holds a
// word or two: every operation costs the size of the sets involved, not the
// width of the cluster.
package nodeset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Set is a bitset over non-negative node IDs. The zero value is an empty set.
// Sets are mutable; use Clone before sharing.
type Set struct {
	// off is the absolute index of words[0]: words[i] holds IDs
	// (off+i)*64 .. (off+i)*64+63. Every word outside the span is zero.
	off   int
	words []uint64
	//schedlint:snapfield popcount cache; recomputed from words at decode
	count int
	//schedlint:snapfield scan hint (every word below it is zero); 0 is always valid, so a decoded set starts there
	hint int
}

// New returns an empty set. n, the expected node count, is only a hint:
// storage grows to the span the set comes to occupy, so nothing is
// preallocated.
func New(n int) *Set { return &Set{} }

// Range returns the set {lo, lo+1, ..., hi-1}.
func Range(lo, hi int) *Set {
	s := &Set{}
	s.AddRange(lo, hi)
	return s
}

// end returns the absolute index one past the last stored word.
func (s *Set) end() int { return s.off + len(s.words) }

// at returns absolute word w (zero outside the stored span).
func (s *Set) at(w int) uint64 {
	if i := w - s.off; i >= 0 && i < len(s.words) {
		return s.words[i]
	}
	return 0
}

// first returns the relative index of the first stored word the scan hint
// does not rule out.
func (s *Set) first() int { return min(max(s.hint-s.off, 0), len(s.words)) }

// cover widens the stored span to include absolute words [lo, hi), hi > lo.
// Growth upward appends; growth downward shifts the words up inside spare
// capacity when there is some and reallocates otherwise.
func (s *Set) cover(lo, hi int) {
	if len(s.words) == 0 {
		s.off = lo
		s.words = append(s.words, make([]uint64, hi-lo)...)
		return
	}
	if lo < s.off {
		n, old := s.off-lo, len(s.words)
		if old+n <= cap(s.words) {
			s.words = s.words[:old+n]
			copy(s.words[n:], s.words[:old])
			clear(s.words[:n])
		} else {
			w := make([]uint64, old+n)
			copy(w[n:], s.words)
			s.words = w
		}
		s.off = lo
	}
	if e := s.end(); hi > e {
		s.words = append(s.words, make([]uint64, hi-e)...)
	}
}

// occupied returns the absolute word range [a, b) from the first to the last
// non-zero word (a == b for an empty set).
func (s *Set) occupied() (a, b int) {
	if s.count == 0 {
		return s.off, s.off
	}
	i, j := s.first(), len(s.words)
	for s.words[i] == 0 {
		i++
	}
	for s.words[j-1] == 0 {
		j--
	}
	return s.off + i, s.off + j
}

// AddRange inserts every id in [lo, hi), filling whole words at a time so
// building a 100k-node universe costs ~hi/64 word writes, not hi bit inserts.
// It panics on a negative lo.
func (s *Set) AddRange(lo, hi int) {
	if hi <= lo {
		return
	}
	if lo < 0 {
		panic("nodeset: negative node id")
	}
	s.cover(lo/wordBits, (hi-1)/wordBits+1)
	for w := lo / wordBits; w*wordBits < hi; w++ {
		mask := ^uint64(0)
		if base := w * wordBits; base < lo {
			mask &= ^uint64(0) << uint(lo-base)
		}
		if end := (w + 1) * wordBits; end > hi {
			mask &= ^uint64(0) >> uint(end-hi)
		}
		p := &s.words[w-s.off]
		s.count += bits.OnesCount64(mask &^ *p)
		*p |= mask
	}
	s.hint = min(s.hint, lo/wordBits)
}

// FromIDs returns a set containing exactly ids.
func FromIDs(ids ...int) *Set {
	s := &Set{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id. Adding an existing member is a no-op. It panics on a
// negative id.
func (s *Set) Add(id int) {
	if id < 0 {
		panic("nodeset: negative node id")
	}
	w, b := id/wordBits, uint(id%wordBits)
	if w < s.off || w >= s.end() {
		s.cover(w, w+1)
	}
	if p := &s.words[w-s.off]; *p&(1<<b) == 0 {
		*p |= 1 << b
		s.count++
		s.hint = min(s.hint, w)
	}
}

// Remove deletes id. Removing a non-member is a no-op.
func (s *Set) Remove(id int) {
	if !s.Contains(id) {
		return
	}
	s.words[id/wordBits-s.off] &^= 1 << uint(id%wordBits)
	s.count--
}

// Contains reports whether id is a member.
func (s *Set) Contains(id int) bool {
	return id >= 0 && s.at(id/wordBits)&(1<<uint(id%wordBits)) != 0
}

// Len returns the cardinality in O(1).
func (s *Set) Len() int { return s.count }

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.count == 0 }

// Clone returns a deep copy trimmed to the occupied span.
func (s *Set) Clone() *Set {
	a, b := s.occupied()
	if a == b {
		return &Set{}
	}
	return &Set{off: a, words: slices.Clone(s.words[a-s.off : b-s.off]), count: s.count, hint: a}
}

// UnionWith adds all members of o to s, walking only o's occupied span.
func (s *Set) UnionWith(o *Set) {
	a, b := o.occupied()
	if a == b {
		return
	}
	if a < s.off || b > s.end() {
		s.cover(a, b)
	}
	ow := o.words[a-o.off : b-o.off]
	sw := s.words[a-s.off : b-s.off]
	sw = sw[:len(ow)]
	for i, w := range ow {
		s.count += bits.OnesCount64(w &^ sw[i])
		sw[i] |= w
	}
	s.hint = min(s.hint, a)
}

// overlap returns the absolute word range both spans store (a >= b when
// they are disjoint).
func overlap(s, o *Set) (a, b int) {
	return max(s.off, o.off), min(s.end(), o.end())
}

// SubtractWith removes all members of o from s.
func (s *Set) SubtractWith(o *Set) {
	a, b := overlap(s, o)
	if a >= b || s.count == 0 || o.count == 0 {
		return
	}
	ow := o.words[a-o.off : b-o.off]
	sw := s.words[a-s.off : b-s.off]
	sw = sw[:len(ow)]
	for i, w := range ow {
		s.count -= bits.OnesCount64(sw[i] & w)
		sw[i] &^= w
	}
}

// IntersectWith keeps only members present in both sets. The stored span
// shrinks to the overlap with o's.
func (s *Set) IntersectWith(o *Set) {
	a, b := overlap(s, o)
	if a >= b || s.count == 0 || o.count == 0 {
		s.words, s.count = s.words[:0], 0
		return
	}
	sw := s.words[a-s.off : b-s.off]
	ow := o.words[a-o.off : b-o.off]
	ow = ow[:len(sw)]
	n := 0
	for i, w := range sw {
		sw[i] = w & ow[i]
		n += bits.OnesCount64(sw[i])
	}
	s.off, s.words, s.count = a, sw, n
}

// Union returns a new set s ∪ o.
func Union(s, o *Set) *Set {
	c := s.Clone()
	c.UnionWith(o)
	return c
}

// Intersection returns a new set s ∩ o.
func Intersection(s, o *Set) *Set {
	c := s.Clone()
	c.IntersectWith(o)
	return c
}

// SubsetOf reports whether every member of s is also in o. It walks only s's
// occupied span and allocates nothing.
func (s *Set) SubsetOf(o *Set) bool {
	if s.count == 0 {
		return true
	}
	if s.count > o.count {
		return false
	}
	// The first and last occupied words hold members, so a span reaching
	// outside o's has a member o lacks.
	a, b := s.occupied()
	if a < o.off || b > o.end() {
		return false
	}
	sw := s.words[a-s.off : b-s.off]
	ow := o.words[a-o.off : b-o.off]
	ow = ow[:len(sw)]
	for i, w := range sw {
		if w&^ow[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share any member, without allocating.
func (s *Set) Intersects(o *Set) bool {
	a, b := overlap(s, o)
	if a >= b || s.count == 0 || o.count == 0 {
		return false
	}
	sw := s.words[a-s.off : b-s.off]
	ow := o.words[a-o.off : b-o.off]
	ow = ow[:len(sw)]
	for i, w := range sw {
		if w&ow[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain the same members. With equal
// counts, agreeing on every word of s's span leaves o no member outside it.
func (s *Set) Equal(o *Set) bool {
	if s.count != o.count {
		return false
	}
	for i, w := range s.words {
		if w != o.at(s.off+i) {
			return false
		}
	}
	return true
}

// Pick removes up to k members (the lowest-numbered ones, for determinism)
// and returns them as a new set. If the set has fewer than k members, all of
// them are taken. The scan starts at the low-water hint, so a big pool whose
// low words are all allocated is not rescanned from word 0; the result holds
// only the span of words it takes, and whole words move in one copy —
// allocating thousands of nodes from a 100k-bit free pool costs a few word
// transfers, not one bit insert per node.
func (s *Set) Pick(k int) *Set {
	taken := &Set{}
	if k <= 0 || s.count == 0 {
		return taken
	}
	k = min(k, s.count)
	first := s.first()
	for s.words[first] == 0 {
		first++
	}
	// Find the boundary word where the k-th member lies; need is how many
	// members it gives up.
	last, need := first, k
	for {
		c := bits.OnesCount64(s.words[last])
		if c >= need {
			break
		}
		need -= c
		last++
	}
	taken.off = s.off + first
	taken.hint = taken.off
	taken.words = slices.Clone(s.words[first : last+1])
	clear(s.words[first:last])
	// Boundary word: keep only the lowest need set bits. Clearing the lowest
	// set bit need times leaves the high remainder; the difference is
	// exactly the bits to take.
	w := s.words[last]
	rest := w
	for i := 0; i < need; i++ {
		rest &= rest - 1
	}
	taken.words[last-first] = w &^ rest
	s.words[last] = rest
	taken.count = k
	s.count -= k
	s.hint = s.off + last
	if rest == 0 {
		s.hint++
	}
	return taken
}

// NextSet returns the smallest member >= from, scanning a word at a time
// (the NextFree-style iteration of classic bitset allocators). ok is false
// when no such member exists. A negative from is treated as zero.
func (s *Set) NextSet(from int) (id int, ok bool) {
	if from < 0 {
		from = 0
	}
	if lo := max(s.hint, s.off) * wordBits; from < lo {
		from = lo
	}
	wi := from/wordBits - s.off
	if wi >= len(s.words) {
		return 0, false
	}
	if w := s.words[wi] >> uint(from%wordBits); w != 0 {
		return from + bits.TrailingZeros64(w), true
	}
	for wi++; wi < len(s.words); wi++ {
		if w := s.words[wi]; w != 0 {
			return (s.off+wi)*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// IDs returns the members in ascending order.
func (s *Set) IDs() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// ForEach calls fn for every member in ascending order. Iteration stops if
// fn returns false.
func (s *Set) ForEach(fn func(id int) bool) {
	if s.count == 0 {
		return
	}
	for wi := s.first(); wi < len(s.words); wi++ {
		base := (s.off + wi) * wordBits
		for w := s.words[wi]; w != 0; w &= w - 1 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// String renders the set as compact ranges, e.g. "{0-3,7,9-10}".
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	ids := s.IDs()
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&sb, "%d-%d", ids[i], ids[j])
		} else {
			fmt.Fprintf(&sb, "%d", ids[i])
		}
		i = j + 1
	}
	sb.WriteByte('}')
	return sb.String()
}
