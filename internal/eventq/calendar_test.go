package eventq

import (
	"math/rand"
	"testing"
)

// drainAll pops both queues to exhaustion, requiring identical dispatch.
func drainAll(t *testing.T, cal, ref *Queue) {
	t.Helper()
	for {
		a, b := cal.Pop(), ref.Pop()
		if (a == nil) != (b == nil) {
			t.Fatalf("length divergence: calendar=%v heap=%v", a != nil, b != nil)
		}
		if a == nil {
			return
		}
		if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
			t.Fatalf("dispatch divergence: calendar (t=%d p=%d seq=%d) vs heap (t=%d p=%d seq=%d)",
				a.Time, a.Prio, a.seq, b.Time, b.Prio, b.seq)
		}
	}
}

// TestCalendarMatchesHeapRandom drives the two backends through identical
// randomized Push/Pop/Cancel/Recycle interleavings and requires identical
// dispatch order throughout.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal, ref Queue
		ref.UseHeap()
		cal.EnablePooling()
		ref.EnablePooling()
		type pair struct{ c, r *Event }
		var livePairs []pair
		clock := int64(0)
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // push
				dt := int64(rng.Intn(4000))
				if rng.Intn(20) == 0 {
					dt = int64(rng.Intn(10_000_000)) // sparse tail jump
				}
				tm := clock + dt
				p := Priority(rng.Intn(7))
				c := cal.Push(tm, p, op)
				r := ref.Push(tm, p, op)
				livePairs = append(livePairs, pair{c, r})
			case k < 8: // pop (and sometimes recycle)
				a, b := cal.Pop(), ref.Pop()
				if (a == nil) != (b == nil) {
					t.Fatalf("seed %d op %d: pop length divergence", seed, op)
				}
				if a == nil {
					continue
				}
				if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
					t.Fatalf("seed %d op %d: pop divergence (t=%d p=%d seq=%d) vs (t=%d p=%d seq=%d)",
						seed, op, a.Time, a.Prio, a.seq, b.Time, b.Prio, b.seq)
				}
				clock = a.Time
				for i, pr := range livePairs {
					if pr.c == a {
						livePairs = append(livePairs[:i], livePairs[i+1:]...)
						break
					}
				}
				if rng.Intn(2) == 0 {
					cal.Recycle(a)
					ref.Recycle(b)
				}
			default: // cancel a random live handle
				if len(livePairs) == 0 {
					continue
				}
				i := rng.Intn(len(livePairs))
				pr := livePairs[i]
				cal.Cancel(pr.c)
				ref.Cancel(pr.r)
				livePairs = append(livePairs[:i], livePairs[i+1:]...)
			}
			if cal.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len %d vs %d", seed, op, cal.Len(), ref.Len())
			}
		}
		drainAll(t, &cal, &ref)
	}
}

// TestCalendarOrderedMatchesHeap pins the serialization iteration to the
// heap's on both backends.
func TestCalendarOrderedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cal, ref Queue
	ref.UseHeap()
	for i := 0; i < 500; i++ {
		tm := int64(rng.Intn(1000))
		p := Priority(rng.Intn(7))
		cal.Push(tm, p, i)
		ref.Push(tm, p, i)
	}
	co, ro := cal.Ordered(), ref.Ordered()
	if len(co) != len(ro) {
		t.Fatalf("Ordered length %d vs %d", len(co), len(ro))
	}
	for i := range co {
		if co[i].Time != ro[i].Time || co[i].Prio != ro[i].Prio || co[i].seq != ro[i].seq {
			t.Fatalf("Ordered[%d] diverges", i)
		}
	}
}

// TestCalendarNegativeTimes exercises the floor-division bucket mapping on
// negative timestamps.
func TestCalendarNegativeTimes(t *testing.T) {
	var q Queue
	times := []int64{-100, -1, 0, 1, -50, 30, -7}
	for _, tm := range times {
		q.Push(tm, PrioArrive, nil)
	}
	prev := int64(-1 << 62)
	for e := q.Pop(); e != nil; e = q.Pop() {
		if e.Time < prev {
			t.Fatalf("order violated: %d after %d", e.Time, prev)
		}
		prev = e.Time
	}
}

// TestCalendarSparseTail verifies that huge forward gaps (the direct-search
// fallback) dispatch correctly and cheaply enough to terminate.
func TestCalendarSparseTail(t *testing.T) {
	var q Queue
	for i := 0; i < 64; i++ {
		q.Push(int64(i), PrioEnd, i)
	}
	q.Push(1_000_000_000, PrioEnd, "far")
	q.Push(2_000_000_000, PrioEnd, "farther")
	for i := 0; i < 64; i++ {
		if e := q.Pop(); e.Time != int64(i) {
			t.Fatalf("pop %d: got t=%d", i, e.Time)
		}
	}
	if e := q.Pop(); e.Payload != "far" {
		t.Fatalf("expected far event, got t=%d", e.Time)
	}
	if e := q.Pop(); e.Payload != "farther" {
		t.Fatalf("expected farther event, got t=%d", e.Time)
	}
	if q.Pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestCalendarContainsAndCancel checks handle identity across bucket resizes.
func TestCalendarContainsAndCancel(t *testing.T) {
	var q Queue
	var hs []*Event
	for i := 0; i < 300; i++ {
		hs = append(hs, q.Push(int64(i*13%97), PrioTimeout, i))
	}
	for i, h := range hs {
		if !q.Contains(h) {
			t.Fatalf("handle %d not found after resizes", i)
		}
	}
	for i, h := range hs {
		if i%3 == 0 {
			q.Cancel(h)
			if q.Contains(h) {
				t.Fatalf("cancelled handle %d still contained", i)
			}
		}
	}
	if want := 300 - 100; q.Len() != want {
		t.Fatalf("Len=%d want %d", q.Len(), want)
	}
	count := 0
	for q.Pop() != nil {
		count++
	}
	if count != 200 {
		t.Fatalf("drained %d events, want 200", count)
	}
}

// FuzzQueueEquivalence feeds interleaved Push/Pop/Cancel/Recycle programs to
// both backends and requires dispatch-order equivalence — the calendar queue
// is pinned to the heap under arbitrary operation mixes, not just the
// simulator's.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 7, 8})
	f.Add([]byte{10, 10, 10, 128, 128, 200, 200, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cal, ref Queue
		ref.UseHeap()
		cal.EnablePooling()
		ref.EnablePooling()
		type pair struct{ c, r *Event }
		var live []pair
		base := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(data[i+1])
			switch op % 4 {
			case 0: // push near the current base
				tm := base + arg
				p := Priority(op % 7)
				live = append(live, pair{cal.Push(tm, p, i), ref.Push(tm, p, i)})
			case 1: // push far ahead (exercise sparse windows / resize)
				tm := base + arg*arg*37
				p := Priority(op % 7)
				live = append(live, pair{cal.Push(tm, p, i), ref.Push(tm, p, i)})
			case 2: // pop and optionally recycle
				a, b := cal.Pop(), ref.Pop()
				if (a == nil) != (b == nil) {
					t.Fatal("pop presence divergence")
				}
				if a == nil {
					continue
				}
				if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
					t.Fatalf("dispatch divergence (t=%d p=%d seq=%d) vs (t=%d p=%d seq=%d)",
						a.Time, a.Prio, a.seq, b.Time, b.Prio, b.seq)
				}
				base = a.Time
				for k, pr := range live {
					if pr.c == a {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
				if arg%2 == 0 {
					cal.Recycle(a)
					ref.Recycle(b)
				}
			case 3: // cancel an arbitrary live handle
				if len(live) == 0 {
					continue
				}
				k := int(arg) % len(live)
				cal.Cancel(live[k].c)
				ref.Cancel(live[k].r)
				live = append(live[:k], live[k+1:]...)
			}
			if cal.Len() != ref.Len() {
				t.Fatalf("Len divergence %d vs %d", cal.Len(), ref.Len())
			}
		}
		for {
			a, b := cal.Pop(), ref.Pop()
			if (a == nil) != (b == nil) {
				t.Fatal("drain presence divergence")
			}
			if a == nil {
				break
			}
			if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
				t.Fatal("drain dispatch divergence")
			}
		}
	})
}

// TestPooledChurnAllocs pins the steady state the engine relies on: with
// pooling on, a Pop/Recycle/Push cycle at constant queue size reuses the
// parked event and the buckets' storage, so it allocates nothing.
func TestPooledChurnAllocs(t *testing.T) {
	var q Queue
	q.EnablePooling()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		q.Push(int64(r.Intn(10_000)), PrioEnd, nil)
	}
	churn := func() {
		e := q.Pop()
		next := e.Time + 1 + int64(r.Intn(10_000))
		q.Recycle(e)
		q.Push(next, Priority(r.Intn(int(PrioSchedule)+1)), nil)
	}
	for i := 0; i < 100_000; i++ {
		churn() // every bucket reaches the capacity it needs
	}
	if got := testing.AllocsPerRun(10_000, churn); got != 0 {
		t.Fatalf("pooled churn allocates %v per operation, want 0", got)
	}
	if q.Len() != 256 {
		t.Fatalf("Len = %d, want 256", q.Len())
	}
}

// TestRebuildDropsHalvedSlots requires a shrinking ring to let go of the
// buckets it no longer indexes, and the reused buckets to keep dispatching
// in order.
func TestRebuildDropsHalvedSlots(t *testing.T) {
	var cal, ref Queue
	ref.UseHeap()
	for i := 0; i < 4096; i++ {
		at := int64(i * 7919 % 10_007)
		cal.Push(at, PrioArrive, nil)
		ref.Push(at, PrioArrive, nil)
	}
	grown := len(cal.buckets)
	for cal.Len() > 16 {
		a, b := cal.Pop(), ref.Pop()
		if a.Time != b.Time || a.seq != b.seq {
			t.Fatalf("dispatch divergence: calendar (t=%d seq=%d) vs heap (t=%d seq=%d)", a.Time, a.seq, b.Time, b.seq)
		}
	}
	if len(cal.buckets) >= grown {
		t.Fatalf("ring did not shrink: %d buckets, was %d", len(cal.buckets), grown)
	}
	for i, bk := range cal.buckets[len(cal.buckets):cap(cal.buckets)] {
		if bk != nil {
			t.Fatalf("dropped slot %d keeps a bucket of capacity %d", len(cal.buckets)+i, cap(bk))
		}
	}
	drainAll(t, &cal, &ref)
}
