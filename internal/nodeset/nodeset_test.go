package nodeset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddRemoveContains(t *testing.T) {
	s := New(128)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	for _, id := range []int{0, 63, 64, 127} {
		if !s.Contains(id) {
			t.Fatalf("missing %d", id)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	s.Add(63) // duplicate add
	if s.Len() != 4 {
		t.Fatal("duplicate add changed cardinality")
	}
	s.Remove(63)
	if s.Contains(63) || s.Len() != 3 {
		t.Fatal("remove failed")
	}
	s.Remove(63) // duplicate remove
	if s.Len() != 3 {
		t.Fatal("duplicate remove changed cardinality")
	}
	s.Remove(10_000) // out of range
	s.Remove(-1)
	if s.Len() != 3 {
		t.Fatal("out-of-range remove changed cardinality")
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(8).Add(-1)
}

func TestGrowBeyondHint(t *testing.T) {
	s := New(8)
	s.Add(1000)
	if !s.Contains(1000) || s.Len() != 1 {
		t.Fatal("set should grow past its capacity hint")
	}
}

func TestRangeAndFromIDs(t *testing.T) {
	r := Range(5, 10)
	if r.Len() != 5 {
		t.Fatalf("Range len = %d", r.Len())
	}
	for i := 5; i < 10; i++ {
		if !r.Contains(i) {
			t.Fatalf("Range missing %d", i)
		}
	}
	f := FromIDs(1, 3, 5)
	if f.Len() != 3 || !f.Contains(3) || f.Contains(2) {
		t.Fatal("FromIDs wrong members")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIDs(1, 2, 3, 64, 65)
	b := FromIDs(3, 4, 64, 200)

	u := Union(a, b)
	if u.Len() != 7 {
		t.Fatalf("union len = %d, want 7", u.Len())
	}
	d := a.Clone()
	d.SubtractWith(b)
	if d.Len() != 3 || !d.Contains(1) || !d.Contains(2) || !d.Contains(65) {
		t.Fatalf("difference wrong: %v", d)
	}
	i := Intersection(a, b)
	if i.Len() != 2 || !i.Contains(3) || !i.Contains(64) {
		t.Fatalf("intersection wrong: %v", i)
	}
	// Operands must be untouched.
	if a.Len() != 5 || b.Len() != 4 {
		t.Fatal("algebra mutated operands")
	}
}

func TestIntersects(t *testing.T) {
	a := FromIDs(1, 100)
	b := FromIDs(2, 100)
	c := FromIDs(3)
	if !a.Intersects(b) {
		t.Fatal("a and b share 100")
	}
	if a.Intersects(c) {
		t.Fatal("a and c are disjoint")
	}
	if a.Intersects(&Set{}) {
		t.Fatal("nothing intersects the empty set")
	}
}

func TestEqual(t *testing.T) {
	a := FromIDs(1, 2, 3)
	b := FromIDs(3, 2, 1)
	if !a.Equal(b) {
		t.Fatal("order must not matter")
	}
	b.Add(512) // different word lengths
	if a.Equal(b) {
		t.Fatal("sets differ")
	}
	b.Remove(512)
	if !a.Equal(b) {
		t.Fatal("sets equal again even with different word capacity")
	}
}

func TestPick(t *testing.T) {
	s := Range(0, 100)
	got := s.Pick(30)
	if got.Len() != 30 {
		t.Fatalf("picked %d, want 30", got.Len())
	}
	if s.Len() != 70 {
		t.Fatalf("remaining %d, want 70", s.Len())
	}
	if got.Intersects(s) {
		t.Fatal("picked nodes must leave the source set")
	}
	// Deterministic: lowest IDs first.
	for i := 0; i < 30; i++ {
		if !got.Contains(i) {
			t.Fatalf("Pick should take lowest IDs, missing %d", i)
		}
	}
}

func TestPickMoreThanAvailable(t *testing.T) {
	s := Range(0, 5)
	got := s.Pick(10)
	if got.Len() != 5 || !s.Empty() {
		t.Fatal("Pick should drain the set when k exceeds cardinality")
	}
}

func TestPickZeroOrNegative(t *testing.T) {
	s := Range(0, 5)
	if !s.Pick(0).Empty() || !s.Pick(-3).Empty() {
		t.Fatal("Pick(<=0) should return empty")
	}
	if s.Len() != 5 {
		t.Fatal("Pick(<=0) should not mutate")
	}
}

func TestIDsSortedAndForEach(t *testing.T) {
	s := FromIDs(70, 3, 900, 64)
	ids := s.IDs()
	want := []int{3, 64, 70, 900}
	for i, w := range want {
		if ids[i] != w {
			t.Fatalf("IDs()[%d] = %d, want %d", i, ids[i], w)
		}
	}
	var visited []int
	s.ForEach(func(id int) bool {
		visited = append(visited, id)
		return id != 70 // stop early
	})
	if len(visited) != 3 || visited[2] != 70 {
		t.Fatalf("ForEach early stop wrong: %v", visited)
	}
}

func TestString(t *testing.T) {
	if got := FromIDs(0, 1, 2, 3, 7, 9, 10).String(); got != "{0-3,7,9-10}" {
		t.Fatalf("String() = %q", got)
	}
	if got := (&Set{}).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIDs(1, 2)
	b := a.Clone()
	b.Add(3)
	a.Remove(1)
	if a.Len() != 1 || b.Len() != 3 {
		t.Fatal("clone not independent")
	}
}

// randomSet builds a set and its reference map representation.
func randomSet(r *rand.Rand, max int) (*Set, map[int]bool) {
	s := &Set{}
	m := map[int]bool{}
	n := r.Intn(64)
	for i := 0; i < n; i++ {
		id := r.Intn(max)
		s.Add(id)
		m[id] = true
	}
	return s, m
}

// Property: set algebra matches a reference map-based implementation.
func TestAlgebraMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, am := randomSet(r, 300)
		b, bm := randomSet(r, 300)

		u := Union(a, b)
		d := a.Clone()
		d.SubtractWith(b)
		i := Intersection(a, b)

		for id := 0; id < 300; id++ {
			if u.Contains(id) != (am[id] || bm[id]) {
				return false
			}
			if d.Contains(id) != (am[id] && !bm[id]) {
				return false
			}
			if i.Contains(id) != (am[id] && bm[id]) {
				return false
			}
		}
		// Cardinality identities.
		ba := b.Clone()
		ba.SubtractWith(a)
		if u.Len() != d.Len()+i.Len()+ba.Len() {
			return false
		}
		return u.Len() == a.Len()+b.Len()-i.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pick(k) partitions the set: result and remainder are disjoint,
// their union is the original, and sizes add up.
func TestPickPartitionProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s, _ := randomSet(r, 500)
		orig := s.Clone()
		k := int(kRaw)
		got := s.Pick(k)
		wantTaken := k
		if orig.Len() < k {
			wantTaken = orig.Len()
		}
		if got.Len() != wantTaken {
			return false
		}
		if got.Intersects(s) {
			return false
		}
		return Union(got, s).Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len always equals the number of IDs yielded.
func TestLenConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, m := randomSet(r, 1000)
		// Interleave removes.
		for id := range m {
			if r.Intn(2) == 0 {
				s.Remove(id)
				delete(m, id)
			}
		}
		return s.Len() == len(s.IDs()) && s.Len() == len(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionWith4392(b *testing.B) {
	x := Range(0, 4392)
	y := Range(2000, 4392)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.UnionWith(y)
	}
}

func BenchmarkPick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := Range(0, 4392)
		s.Pick(2048)
	}
}
