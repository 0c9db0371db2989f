package nodeset

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// Property-based tests: every algebraic law a Set must obey is checked
// against a map[int]bool model over randomized ID slices. IDs are drawn as
// uint16 so the bitsets stay a bounded few KiB while still spanning many
// words and forcing grow-on-Add paths.

// fromIDs16 builds a set and its model from a random ID slice (duplicates
// welcome — re-adding must be a no-op).
func fromIDs16(ids []uint16) (*Set, map[int]bool) {
	s := &Set{}
	model := make(map[int]bool, len(ids))
	for _, id := range ids {
		s.Add(int(id))
		model[int(id)] = true
	}
	return s, model
}

// agrees reports whether s contains exactly the model's members, with a
// consistent count.
func agrees(s *Set, model map[int]bool) bool {
	if s.Len() != len(model) {
		return false
	}
	for id := range model {
		if !s.Contains(id) {
			return false
		}
	}
	for _, id := range s.IDs() {
		if !model[id] {
			return false
		}
	}
	return true
}

func quickCheck(t *testing.T, name string, f any) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestQuickAddRemoveModel(t *testing.T) {
	quickCheck(t, "add/remove vs model", func(add, remove []uint16) bool {
		s, model := fromIDs16(add)
		for _, id := range remove {
			s.Remove(int(id))
			delete(model, int(id))
		}
		return agrees(s, model)
	})
}

func TestQuickUnionSemantics(t *testing.T) {
	quickCheck(t, "union", func(a, b []uint16) bool {
		sa, ma := fromIDs16(a)
		sb, mb := fromIDs16(b)
		u := Union(sa, sb)
		mu := make(map[int]bool, len(ma)+len(mb))
		for id := range ma {
			mu[id] = true
		}
		for id := range mb {
			mu[id] = true
		}
		// The operands must come through untouched (Union clones).
		return agrees(u, mu) && agrees(sa, ma) && agrees(sb, mb)
	})
}

func TestQuickIntersectSubtractSemantics(t *testing.T) {
	quickCheck(t, "intersect/subtract", func(a, b []uint16) bool {
		sa, ma := fromIDs16(a)
		sb, mb := fromIDs16(b)
		inter := Intersection(sa, sb)
		diff := Difference(sa, sb)
		mi := make(map[int]bool)
		md := make(map[int]bool)
		for id := range ma {
			if mb[id] {
				mi[id] = true
			} else {
				md[id] = true
			}
		}
		if !agrees(inter, mi) || !agrees(diff, md) {
			return false
		}
		// Partition law: (a ∩ b) ∪ (a \ b) == a, and the two parts are
		// disjoint.
		if inter.Intersects(diff) {
			return false
		}
		return Union(inter, diff).Equal(sa)
	})
}

func TestQuickSubtractUnionRoundTrip(t *testing.T) {
	quickCheck(t, "subtract/union round-trip", func(a, b []uint16) bool {
		sa, _ := fromIDs16(a)
		sb, _ := fromIDs16(b)
		// (a ∪ b) \ b == a \ b, and re-adding b restores a ∪ b.
		u := Union(sa, sb)
		stripped := Difference(u, sb)
		if !stripped.Equal(Difference(sa, sb)) {
			return false
		}
		stripped.UnionWith(sb)
		return stripped.Equal(u)
	})
}

func TestQuickCloneIsDeep(t *testing.T) {
	quickCheck(t, "clone deep-copies", func(a, mutate []uint16) bool {
		s, model := fromIDs16(a)
		c := s.Clone()
		if !c.Equal(s) {
			return false
		}
		// Mutating the original must not leak into the clone, and vice versa.
		for i, id := range mutate {
			if i%2 == 0 {
				s.Add(int(id))
			} else {
				s.Remove(int(id))
			}
		}
		return agrees(c, model)
	})
}

func TestQuickCountConsistency(t *testing.T) {
	quickCheck(t, "count consistency", func(a, b []uint16, k uint8) bool {
		s, _ := fromIDs16(a)
		o, _ := fromIDs16(b)
		s.UnionWith(o)
		s.SubtractWith(o)
		s.IntersectWith(s.Clone())
		snapshot := s.Clone()
		picked := s.Pick(int(k))
		// Len must equal both the popcount of the words and len(IDs()) after
		// any operation mix, and Pick must partition the set exactly.
		pop := 0
		for _, w := range s.words {
			pop += bits.OnesCount64(w)
		}
		if s.Len() != pop || s.Len() != len(s.IDs()) {
			return false
		}
		if picked.Len() != min(int(k), snapshot.Len()) {
			return false
		}
		if picked.Intersects(s) {
			return false
		}
		if !Union(picked, s).Equal(snapshot) {
			return false
		}
		if s.Empty() != (s.Len() == 0) {
			return false
		}
		return true
	})
}

// TestGrowOnAdd adds an ID far beyond whatever the set stores and checks
// the result through the public surface only: membership, size, order,
// iteration and equality must all see the new member next to the old ones,
// and growing the span downward afterwards must keep both.
func TestGrowOnAdd(t *testing.T) {
	cases := []struct {
		name string
		s    *Set
		had  []int
	}{
		{"zero value", &Set{}, nil},
		{"New(0)", New(0), nil},
		{"New(4)", New(4), nil},
		{"Range(0,3)", Range(0, 3), []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			s.Add(1000)
			want := append(append([]int(nil), tc.had...), 1000)
			check := func(step string, want []int) {
				t.Helper()
				if s.Len() != len(want) {
					t.Fatalf("%s: Len = %d, want %d", step, s.Len(), len(want))
				}
				if got := s.IDs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: IDs = %v, want %v", step, got, want)
				}
				for _, id := range want {
					if !s.Contains(id) {
						t.Fatalf("%s: Contains(%d) = false", step, id)
					}
				}
				for _, id := range []int{-1, 3, 999, 1001, 5000} {
					if s.Contains(id) && !slices.Contains(want, id) {
						t.Fatalf("%s: Contains(%d) = true", step, id)
					}
				}
				prev := -1
				for _, id := range want {
					if got, ok := s.NextSet(prev + 1); !ok || got != id {
						t.Fatalf("%s: NextSet(%d) = %d,%v, want %d", step, prev+1, got, ok, id)
					}
					prev = id
				}
				if got, ok := s.NextSet(prev + 1); ok {
					t.Fatalf("%s: NextSet(%d) = %d past the last member", step, prev+1, got)
				}
				if ref := FromIDs(want...); !s.Equal(ref) || !ref.Equal(s) {
					t.Fatalf("%s: %s not Equal to FromIDs(%v)", step, s, want)
				}
			}
			check("Add(1000)", want)
			s.Add(1000) // re-add: nothing moves
			check("re-Add(1000)", want)
			s.Remove(5000) // beyond the stored span: no-op, no growth panic
			check("Remove(5000)", want)
			s.Add(200) // grows the span downward when it starts above word 3
			want = append(append([]int(nil), tc.had...), 200, 1000)
			check("Add(200)", want)
		})
	}
}
