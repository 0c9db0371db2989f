package nodeset

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"hybridsched/internal/snapshot"
)

// fullWidthEncoding is the reference snapshot encoding of a member list:
// a little-endian uint32 word count, then every word from word 0 up to the
// last non-zero one as a little-endian uint64. It is built from the IDs
// alone, so it pins the bytes whatever span a Set happens to store.
func fullWidthEncoding(ids []int) []byte {
	var words []uint64
	for _, id := range ids {
		w := id / wordBits
		for len(words) <= w {
			words = append(words, 0)
		}
		words[w] |= 1 << uint(id%wordBits)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(words)))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

func encode(s *Set) []byte {
	var e snapshot.Enc
	s.EncodeSnapshot(&e)
	return e.Bytes()
}

// TestSnapshotBytesWithOffset pins the encoding of sets whose stored span
// starts above word 0 to the bytes a full-width set always produced, so
// snapshots stay readable by, and byte-identical to, earlier versions.
func TestSnapshotBytesWithOffset(t *testing.T) {
	// {200, 640}: word 3 bit 8 and word 10 bit 0, stored from word 3.
	const golden = "0b000000" +
		"0000000000000000" + "0000000000000000" + "0000000000000000" +
		"0001000000000000" +
		"0000000000000000" + "0000000000000000" + "0000000000000000" +
		"0000000000000000" + "0000000000000000" + "0000000000000000" +
		"0100000000000000"
	want, _ := hex.DecodeString(golden)
	if got := fullWidthEncoding([]int{200, 640}); !bytes.Equal(got, want) {
		t.Fatalf("reference encoder drifted from the golden bytes:\n got %x\nwant %x", got, want)
	}

	picked := Range(128, 1024)
	picked.Pick(72) // leaves {200..1023}, starting inside word 3
	cut := Range(0, 131072)
	cut.IntersectWith(FromIDs(200, 640))
	clone := FromIDs(640, 200, 5000)
	clone.Remove(5000) // trailing zero words must be trimmed
	cases := []struct {
		name string
		s    *Set
		ids  []int
	}{
		{"FromIDs", FromIDs(640, 200), []int{200, 640}},
		{"Clone", clone.Clone(), []int{200, 640}},
		{"IntersectWith", cut, []int{200, 640}},
		{"Pick result", Range(192, 300).Pick(9), []int{192, 193, 194, 195, 196, 197, 198, 199, 200}},
		{"Pick remainder", picked, rangeIDs(200, 1024)},
		{"Pick of a high member", FromIDs(9000).Pick(1), []int{9000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.IDs(); !slices.Equal(got, tc.ids) {
				t.Fatalf("IDs = %v, want %v", got, tc.ids)
			}
			got := encode(tc.s)
			if !bytes.Equal(got, fullWidthEncoding(tc.ids)) {
				t.Fatalf("EncodeSnapshot = %x\nwant            %x", got, fullWidthEncoding(tc.ids))
			}
			if slices.Equal(tc.ids, []int{200, 640}) && !bytes.Equal(got, want) {
				t.Fatalf("EncodeSnapshot = %x, want golden %s", got, golden)
			}
			d := snapshot.NewDec(got)
			back := DecodeSnapshotSet(d)
			if err := d.Done(); err != nil {
				t.Fatal(err)
			}
			if !back.Equal(tc.s) || !bytes.Equal(encode(back), got) {
				t.Fatalf("round trip: %s re-encodes as %x", back, encode(back))
			}
		})
	}
	emptied := FromIDs(9000)
	emptied.Remove(9000)
	if got := encode(emptied); !bytes.Equal(got, fullWidthEncoding(nil)) {
		t.Fatalf("emptied set encodes as %x", got)
	}
}

func rangeIDs(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		out = append(out, id)
	}
	return out
}

// TestPickHintFollowsLowerInserts drains the low words of a big pool (so the
// scan hint moves past them), then returns a low node three different ways:
// Pick must find it again rather than trusting a stale hint.
func TestPickHintFollowsLowerInserts(t *testing.T) {
	for name, giveBack := range map[string]func(s *Set){
		"Add":       func(s *Set) { s.Add(5) },
		"AddRange":  func(s *Set) { s.AddRange(5, 6) },
		"UnionWith": func(s *Set) { s.UnionWith(FromIDs(5)) },
	} {
		t.Run(name, func(t *testing.T) {
			pool := Range(0, 131072)
			if got := pool.Pick(4096); got.Len() != 4096 {
				t.Fatalf("Pick(4096) took %d", got.Len())
			}
			giveBack(pool)
			if got := pool.Pick(2); !got.Equal(FromIDs(5, 4096)) {
				t.Fatalf("Pick(2) = %s, want {5,4096}", got)
			}
			if id, ok := pool.NextSet(0); !ok || id != 4097 {
				t.Fatalf("NextSet(0) = %d,%v, want 4097", id, ok)
			}
		})
	}
}

// fuzzMaxID bounds the fuzzed IDs to a 131072-node cluster.
const fuzzMaxID = 131072

// FuzzSetOps decodes the input into a stream of operations over three sets
// and checks every result against a map[int]bool model, and every set's
// snapshot bytes against the full-width reference encoding. Each operation
// takes five bytes: opcode, operand sets, a 17-bit ID and a 7-bit extra.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0xff, 3, 1, 10, 0, 0, 4, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 0xff, 0xff, 1, 0, 1, 0x10, 0, 0, 4, 3, 0, 0, 0, 6, 1, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0x40, 0x21, 3, 3, 0, 0x80, 0, 2, 0, 0, 0, 0x7f, 5, 3, 0, 0, 0, 7, 2, 0, 0, 0, 8, 5, 0, 0x40, 0})
	f.Add([]byte{2, 0, 0, 0, 0xff, 3, 0, 0, 2, 0, 0, 0, 3, 0, 0, 3, 0, 2, 0, 0, 9, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sets [3]*Set
		var models [3]map[int]bool
		for i := range sets {
			sets[i], models[i] = &Set{}, map[int]bool{}
		}
		for len(data) >= 5 {
			op, a, b := data[0]%10, int(data[1]%3), int(data[1]/3%3)
			id := int(data[2]) | int(data[3])<<8 | int(data[4]&1)<<16
			extra := int(data[4] >> 1)
			data = data[5:]
			s, m := sets[a], models[a]
			switch op {
			case 0:
				s.Add(id)
				m[id] = true
			case 1:
				s.Remove(id)
				delete(m, id)
			case 2:
				hi := min(id+extra*64+1, fuzzMaxID)
				s.AddRange(id, hi)
				for x := id; x < hi; x++ {
					m[x] = true
				}
			case 3:
				k := id >> 4
				want := sortedIDs(m)[:min(k, len(m))]
				got := s.Pick(k)
				if !slices.Equal(got.IDs(), want) {
					t.Fatalf("Pick(%d) = %v, want %v", k, got.IDs(), want)
				}
				for _, x := range want {
					delete(m, x)
				}
				checkModel(t, "Pick remainder", s, m)
				sets[b], models[b] = got, modelOf(want)
			case 4:
				s.UnionWith(sets[b])
				for x := range models[b] {
					m[x] = true
				}
			case 5:
				for x := range models[b] {
					delete(m, x)
				}
				s.SubtractWith(sets[b])
			case 6:
				for x := range m {
					if !models[b][x] {
						delete(m, x)
					}
				}
				s.IntersectWith(sets[b])
			case 7:
				sets[b], models[b] = s.Clone(), modelOf(sortedIDs(m))
			case 8:
				wantNext, wantOK := 0, false
				for _, x := range sortedIDs(m) {
					if x >= id {
						wantNext, wantOK = x, true
						break
					}
				}
				if got, ok := s.NextSet(id); got != wantNext || ok != wantOK {
					t.Fatalf("NextSet(%d) = %d,%v, want %d,%v", id, got, ok, wantNext, wantOK)
				}
				shared, same := false, len(m) == len(models[b])
				for x := range m {
					shared = shared || models[b][x]
					same = same && models[b][x]
				}
				if s.Intersects(sets[b]) != shared || s.Equal(sets[b]) != same || sets[b].Equal(s) != same {
					t.Fatalf("Intersects/Equal(%d, %d) = %v/%v, want %v/%v",
						a, b, s.Intersects(sets[b]), s.Equal(sets[b]), shared, same)
				}
			case 9:
				for x := range models[b] {
					delete(m, x)
				}
				sets[a] = Difference(s, sets[b])
			}
			for i := range sets {
				checkModel(t, "after op", sets[i], models[i])
			}
		}
	})
}

func sortedIDs(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

func modelOf(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, x := range ids {
		m[x] = true
	}
	return m
}

// checkModel requires s to hold exactly the model's members and to encode
// exactly as the full-width reference does.
func checkModel(t *testing.T, step string, s *Set, m map[int]bool) {
	t.Helper()
	want := sortedIDs(m)
	if s.Len() != len(want) || s.Empty() != (len(want) == 0) {
		t.Fatalf("%s: Len = %d, want %d", step, s.Len(), len(want))
	}
	if got := s.IDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: IDs = %v, want %v", step, got, want)
	}
	for _, x := range want {
		if !s.Contains(x) {
			t.Fatalf("%s: Contains(%d) = false", step, x)
		}
	}
	if got := encode(s); !bytes.Equal(got, fullWidthEncoding(want)) {
		t.Fatalf("%s: EncodeSnapshot = %x, want %x", step, got, fullWidthEncoding(want))
	}
}
