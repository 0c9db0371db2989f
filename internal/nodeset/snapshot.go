package nodeset

import (
	"math/bits"

	"hybridsched/internal/snapshot"
)

// EncodeSnapshot serializes the set as its raw bit words, counted from word
// 0 whatever the stored span's offset. The encoding is canonical: trailing
// zero words are trimmed so that equal sets always produce equal bytes
// regardless of capacity or span history.
func (s *Set) EncodeSnapshot(e *snapshot.Enc) {
	words := s.words
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	if len(words) == 0 {
		e.U64s(nil)
		return
	}
	e.ZeroPaddedU64s(s.off, words)
}

// DecodeSnapshotSet reads a set written by EncodeSnapshot. The cardinality is
// recomputed from the words, so a corrupt count can never disagree with the
// members, and the leading zero words become the span's offset. On malformed
// input the decoder's error is set and an empty set is returned.
func DecodeSnapshotSet(d *snapshot.Dec) *Set {
	words := d.U64s()
	if d.Err() != nil {
		return &Set{}
	}
	off := 0
	for off < len(words) && words[off] == 0 {
		off++
	}
	s := &Set{off: off, words: words[off:]}
	for _, w := range s.words {
		s.count += bits.OnesCount64(w)
	}
	return s
}
