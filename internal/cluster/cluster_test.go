package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridsched/internal/nodeset"
)

func mustOK(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestNewCluster(t *testing.T) {
	c := New(100)
	if c.N() != 100 || c.FreeCount() != 100 || c.TotalReserved() != 0 {
		t.Fatalf("fresh cluster wrong: N=%d free=%d", c.N(), c.FreeCount())
	}
	mustOK(t, c)
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestAllocFreeAndRelease(t *testing.T) {
	c := New(100)
	s := c.AllocFree(1, 30)
	if s.Len() != 30 || c.FreeCount() != 70 || c.AllocatedCount(1) != 30 {
		t.Fatal("alloc wrong")
	}
	mustOK(t, c)
	rel := c.Release(1)
	if rel.Len() != 30 || c.FreeCount() != 100 || c.AllocatedCount(1) != 0 {
		t.Fatal("release wrong")
	}
	mustOK(t, c)
}

func TestAllocFreePanicsWhenShort(t *testing.T) {
	c := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AllocFree(1, 11)
}

func TestDoubleReleasePanics(t *testing.T) {
	c := New(10)
	c.AllocFree(1, 5)
	c.Release(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Release(1)
}

func TestReserveAndAllocReserved(t *testing.T) {
	c := New(100)
	got := c.Reserve(7, 40)
	if got.Len() != 40 || c.TotalReserved() != 40 || c.ReservedCount(7) != 40 || c.FreeCount() != 60 {
		t.Fatal("reserve wrong")
	}
	mustOK(t, c)
	// Start a job from the reservation, partially.
	s := c.AllocReserved(1, 7, 25)
	if s.Len() != 25 || c.ReservedCount(7) != 15 || c.AllocatedCount(1) != 25 {
		t.Fatal("alloc from reservation wrong")
	}
	mustOK(t, c)
	// Draining the reservation removes the claim entirely.
	s2 := c.AllocReserved(1, 7, 100)
	if s2.Len() != 15 || c.ReservedCount(7) != 0 || c.AllocatedCount(1) != 40 {
		t.Fatal("drain reservation wrong")
	}
	if len(c.Claims()) != 0 {
		t.Fatal("claim should be gone")
	}
	mustOK(t, c)
}

func TestReserveClampsToFree(t *testing.T) {
	c := New(50)
	c.AllocFree(1, 45)
	got := c.Reserve(9, 20)
	if got.Len() != 5 || c.FreeCount() != 0 {
		t.Fatalf("reserve should clamp: got %d", got.Len())
	}
	mustOK(t, c)
}

func TestUnreserveAll(t *testing.T) {
	c := New(50)
	c.Reserve(3, 20)
	rel := c.UnreserveAll(3)
	if rel.Len() != 20 || c.FreeCount() != 50 || c.TotalReserved() != 0 {
		t.Fatal("unreserve wrong")
	}
	// Unknown claim is a no-op.
	if !c.UnreserveAll(99).Empty() {
		t.Fatal("unknown claim should release nothing")
	}
	mustOK(t, c)
}

func TestReserveExactAndAllocExact(t *testing.T) {
	c := New(50)
	rel := c.AllocFree(1, 10) // nodes 0..9
	ret := c.Release(1)       // back to free
	if !rel.Equal(ret) {
		t.Fatal("release must return the same nodes")
	}
	c.ReserveExact(5, nodeset.FromIDs(0, 1, 2))
	if c.ReservedCount(5) != 3 {
		t.Fatal("exact reserve wrong")
	}
	mustOK(t, c)
	c.AllocExact(2, nodeset.FromIDs(3, 4))
	if c.AllocatedCount(2) != 2 {
		t.Fatal("exact alloc wrong")
	}
	mustOK(t, c)
}

func TestReserveExactPanicsOnHeldNodes(t *testing.T) {
	c := New(50)
	c.AllocFree(1, 10) // holds 0..9
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ReserveExact(5, nodeset.FromIDs(0))
}

func TestAllocExactPanicsOnReservedNodes(t *testing.T) {
	c := New(50)
	c.Reserve(5, 10) // reserves 0..9
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AllocExact(1, nodeset.FromIDs(0))
}

func TestReleasePartialAndGrow(t *testing.T) {
	c := New(100)
	c.AllocFree(1, 60)
	rel := c.ReleasePartial(1, 20)
	if rel.Len() != 20 || c.AllocatedCount(1) != 40 || c.FreeCount() != 60 {
		t.Fatal("partial release wrong")
	}
	mustOK(t, c)
	grown := c.Grow(1, 10)
	if grown.Len() != 10 || c.AllocatedCount(1) != 50 {
		t.Fatal("grow wrong")
	}
	mustOK(t, c)
	// Grow clamps to what is free.
	c.AllocFree(2, 50)
	if !c.Grow(1, 5).Empty() {
		t.Fatal("grow with empty free pool should move nothing")
	}
	mustOK(t, c)
}

func TestReleasePartialPanicsWhenShort(t *testing.T) {
	c := New(10)
	c.AllocFree(1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ReleasePartial(1, 6)
}

func TestReleasePartialAllRemovesAllocation(t *testing.T) {
	c := New(10)
	c.AllocFree(1, 5)
	c.ReleasePartial(1, 5)
	if c.AllocatedCount(1) != 0 {
		t.Fatal("allocation should be gone")
	}
	mustOK(t, c)
	// A later Release must panic since nothing is held.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Release(1)
}

// Property: any random sequence of valid operations preserves the partition
// invariant and node conservation.
func TestRandomOperationsInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 256
		c := New(n)
		jobs := map[int]int{}   // job -> held count
		claims := map[int]int{} // claim -> reserved count
		nextID := 1
		for op := 0; op < 400; op++ {
			switch r.Intn(7) {
			case 0: // allocate a new job from free
				k := 1 + r.Intn(64)
				if c.FreeCount() >= k {
					c.AllocFree(nextID, k)
					jobs[nextID] = k
					nextID++
				}
			case 1: // release a job
				for id := range jobs {
					c.Release(id)
					delete(jobs, id)
					break
				}
			case 2: // reserve for a new claim
				k := 1 + r.Intn(64)
				got := c.Reserve(nextID, k)
				if got.Len() > 0 {
					claims[nextID] = got.Len()
				}
				nextID++
			case 3: // dissolve a claim
				for id := range claims {
					c.UnreserveAll(id)
					delete(claims, id)
					break
				}
			case 4: // start a job from a claim
				for id, have := range claims {
					k := 1 + r.Intn(have)
					got := c.AllocReserved(nextID, id, k)
					jobs[nextID] = got.Len()
					nextID++
					if got.Len() == have {
						delete(claims, id)
					} else {
						claims[id] = have - got.Len()
					}
					break
				}
			case 5: // shrink a job
				for id, have := range jobs {
					if have > 1 {
						k := 1 + r.Intn(have-1)
						c.ReleasePartial(id, k)
						jobs[id] = have - k
					}
					break
				}
			case 6: // grow a job
				for id := range jobs {
					got := c.Grow(id, 1+r.Intn(32))
					jobs[id] += got.Len()
					break
				}
			}
			if err := c.CheckInvariant(); err != nil {
				return false
			}
		}
		// Conservation cross-check against our shadow bookkeeping.
		held := 0
		for id, k := range jobs {
			if c.AllocatedCount(id) != k {
				return false
			}
			held += k
		}
		res := 0
		for id, k := range claims {
			if c.ReservedCount(id) != k {
				return false
			}
			res += k
		}
		return c.FreeCount()+held+res == n && c.TotalReserved() == res
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocReleaseCycle(b *testing.B) {
	c := New(4392)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllocFree(1, 2048)
		c.Release(1)
	}
}

func TestDownPoolLifecycle(t *testing.T) {
	c := New(100)
	taken := c.TakeDownFree(10)
	if taken.Len() != 10 || c.DownCount() != 10 || c.FreeCount() != 90 || c.AvailableCount() != 90 {
		t.Fatalf("take-down wrong: down=%d free=%d avail=%d", c.DownCount(), c.FreeCount(), c.AvailableCount())
	}
	mustOK(t, c)
	taken.ForEach(func(id int) bool {
		if !c.IsDown(id) || c.IsFree(id) {
			t.Fatalf("node %d not tracked as down", id)
		}
		return true
	})
	c.Restore(taken)
	if c.DownCount() != 0 || c.FreeCount() != 100 {
		t.Fatalf("restore wrong: down=%d free=%d", c.DownCount(), c.FreeCount())
	}
	mustOK(t, c)
}

func TestTakeDownFreeClampsToFree(t *testing.T) {
	c := New(10)
	c.AllocFree(1, 8)
	taken := c.TakeDownFree(5)
	if taken.Len() != 2 || c.FreeCount() != 0 || c.DownCount() != 2 {
		t.Fatalf("clamp wrong: taken=%d", taken.Len())
	}
	mustOK(t, c)
}

func TestTakeDownExactPanicsOnHeldNodes(t *testing.T) {
	c := New(10)
	held := c.AllocFree(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.TakeDownExact(held)
}

func TestTakeDownReserved(t *testing.T) {
	c := New(10)
	res := c.Reserve(7, 3)
	id := res.IDs()[0]
	c.TakeDownReserved(7, id)
	if c.ReservedCount(7) != 2 || c.TotalReserved() != 2 || !c.IsDown(id) {
		t.Fatalf("reserved take-down wrong: res=%d down=%v", c.ReservedCount(7), c.IsDown(id))
	}
	mustOK(t, c)
	// Draining the whole reservation deletes the claim entry.
	for _, rest := range c.ReservedSet(7).IDs() {
		c.TakeDownReserved(7, rest)
	}
	if c.ReservedCount(7) != 0 || c.DownCount() != 3 {
		t.Fatalf("full reserved take-down wrong")
	}
	mustOK(t, c)
}

func TestTakeDownReservedPanicsOnWrongClaim(t *testing.T) {
	c := New(10)
	c.Reserve(7, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.TakeDownReserved(8, 0)
}

func TestRestorePanicsOnInServiceNodes(t *testing.T) {
	c := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Restore(nodeset.FromIDs(3))
}

func TestHolderLookups(t *testing.T) {
	c := New(20)
	a := c.AllocFree(5, 4)
	r := c.Reserve(9, 3)
	aid, rid := a.IDs()[0], r.IDs()[0]
	if j, ok := c.AllocHolder(aid); !ok || j != 5 {
		t.Fatalf("AllocHolder(%d) = %d,%v", aid, j, ok)
	}
	if cl, ok := c.ReservationHolder(rid); !ok || cl != 9 {
		t.Fatalf("ReservationHolder(%d) = %d,%v", rid, cl, ok)
	}
	if _, ok := c.AllocHolder(rid); ok {
		t.Fatal("reserved node reported as allocated")
	}
	free := c.FreeSet().IDs()[0]
	if _, ok := c.AllocHolder(free); ok {
		t.Fatal("free node reported as allocated")
	}
	if _, ok := c.ReservationHolder(free); ok {
		t.Fatal("free node reported as reserved")
	}
}

// Claims must come back sorted: it reads a map, and callers (reports, debug
// dumps) would otherwise see a different order on every run.
func TestClaimsSorted(t *testing.T) {
	c := New(100)
	for _, id := range []int{42, 7, 99, 3, 15} {
		c.Reserve(id, 2)
	}
	got := c.Claims()
	want := []int{3, 7, 15, 42, 99}
	if len(got) != len(want) {
		t.Fatalf("Claims() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Claims() = %v, want %v", got, want)
		}
	}
	mustOK(t, c)
}

// TestReturnedSetsAreNotAliased mutates every set a moving call hands back —
// for a holder that had nothing yet (the cluster takes the picked set over)
// and for one that already held nodes — and requires the cluster's own
// bookkeeping to be untouched: callers keep and trim these sets.
func TestReturnedSetsAreNotAliased(t *testing.T) {
	const job, claim = 1, 7
	cases := []struct {
		name string
		prep func(c *Cluster)
		move func(c *Cluster) *nodeset.Set
	}{
		{"AllocFree/new", func(*Cluster) {}, func(c *Cluster) *nodeset.Set { return c.AllocFree(job, 8) }},
		{"AllocFree/existing", func(c *Cluster) { c.AllocFree(job, 4) }, func(c *Cluster) *nodeset.Set { return c.AllocFree(job, 8) }},
		{"AllocReserved/new", func(c *Cluster) { c.Reserve(claim, 20) }, func(c *Cluster) *nodeset.Set { return c.AllocReserved(job, claim, 8) }},
		{"AllocReserved/existing", func(c *Cluster) { c.Reserve(claim, 20); c.AllocFree(job, 4) }, func(c *Cluster) *nodeset.Set { return c.AllocReserved(job, claim, 8) }},
		{"AllocReserved/whole", func(c *Cluster) { c.Reserve(claim, 8) }, func(c *Cluster) *nodeset.Set { return c.AllocReserved(job, claim, 8) }},
		{"Reserve/new", func(*Cluster) {}, func(c *Cluster) *nodeset.Set { return c.Reserve(claim, 8) }},
		{"Reserve/existing", func(c *Cluster) { c.Reserve(claim, 4) }, func(c *Cluster) *nodeset.Set { return c.Reserve(claim, 8) }},
		{"Grow/new", func(*Cluster) {}, func(c *Cluster) *nodeset.Set { return c.Grow(job, 8) }},
		{"Grow/existing", func(c *Cluster) { c.AllocFree(job, 4) }, func(c *Cluster) *nodeset.Set { return c.Grow(job, 8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(256)
			c.AllocFree(99, 3) // the picks start inside a word
			tc.prep(c)
			got := tc.move(c)
			if got.Len() != 8 {
				t.Fatalf("moved %d nodes, want 8", got.Len())
			}
			alloc, res := c.Allocated(job), c.ReservedSet(claim)
			total := c.TotalReserved()
			mustOK(t, c)

			lost, _ := got.NextSet(0)
			got.Remove(lost)
			got.Pick(3)
			got.Add(200)
			got.UnionWith(nodeset.Range(100, 140))
			got.SubtractWith(nodeset.Range(0, 256))

			if c.AllocatedCount(job) != alloc.Len() || !c.Allocated(job).Equal(alloc) {
				t.Fatalf("allocation changed with the returned set: %s, was %s", c.Allocated(job), alloc)
			}
			if c.ReservedCount(claim) != res.Len() || !c.ReservedSet(claim).Equal(res) || c.TotalReserved() != total {
				t.Fatalf("reservation changed with the returned set: %s, was %s", c.ReservedSet(claim), res)
			}
			mustOK(t, c)
		})
	}
}
