package policy

import (
	"fmt"
	"math"

	"hybridsched/internal/job"
)

// Queue is a waiting queue kept in policy order and indexed for the EASY
// backfill walk (Planner.PlanQueue).
//
// Jobs live in slots. Removing a job leaves a nil tombstone in its slot, so
// a removal shifts nothing; the queue compacts once tombstones outnumber
// live jobs. A min segment tree over the slots holds two keys per queued
// job: its start need (startNeed under the queue's sizing mode) and its
// estimated wall time at full size. The backfill walk uses the tree to jump
// over every run of slots that cannot start (see Planner.PlanQueue). A
// waiting job's size, estimate and saved progress do not change while it
// waits, so keys computed when a job is placed stay exact until it leaves.
//
// Every placement or move of a job is reported to the queue's SlotFunc, so
// the owner can later remove the job by slot in O(log Q).
type Queue struct {
	slots    []*job.Job // policy order; nil marks a tombstone
	live     int
	flexible bool
	moved    SlotFunc
	leaves   int    // leaf count of tree: a power of two >= len(slots), or 0
	tree     []qkey // 1-based min tree; tree[leaves+k] is slot k's key
}

// SlotFunc receives the slot a queued job now occupies.
type SlotFunc func(j *job.Job, slot int)

// qkey is one tree node: the minimum start need and the minimum estimated
// full-size wall time over the node's slots. Wall times are clamped into
// int32 downwards, which keeps them lower bounds.
type qkey struct{ need, wall int32 }

// deadKey marks a tombstone or padding leaf. No probe admits it: every
// probe's need threshold is at most maxLive.
var deadKey = qkey{need: math.MaxInt32, wall: math.MaxInt32}

const (
	maxLive = math.MaxInt32 - 1
	// minLeaves is the smallest tree; keepLeaves the largest one a drained
	// queue keeps instead of releasing it.
	minLeaves  = 16
	keepLeaves = 1024
)

// NewQueue returns an empty queue whose need keys follow the given sizing
// mode (a malleable job's minimum size under flexible sizing, its full size
// otherwise; see PlanEASY's flexible) and that reports every job's new slot
// to moved.
func NewQueue(flexible bool, moved SlotFunc) *Queue {
	return &Queue{flexible: flexible, moved: moved}
}

// Len returns the number of queued jobs.
func (q *Queue) Len() int { return q.live }

// Slots returns the number of slots, live and tombstoned.
func (q *Queue) Slots() int { return len(q.slots) }

// At returns the job in slot k, or nil for a tombstone.
func (q *Queue) At(k int) *job.Job { return q.slots[k] }

// Jobs returns the queued jobs in policy order. The slice is freshly
// allocated.
func (q *Queue) Jobs() []*job.Job {
	out := make([]*job.Job, 0, q.live)
	for _, j := range q.slots {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}

// MinNeed returns the smallest start need of any queued job, or the largest
// int when the queue is empty.
func (q *Queue) MinNeed() int {
	if q.live == 0 {
		return int(^uint(0) >> 1)
	}
	return int(q.tree[1].need)
}

// Append places j after every slot, the position a time-dependent policy's
// queue gives arrivals between its per-pass sorts.
func (q *Queue) Append(j *job.Job) {
	q.appendSlot()
	q.place(len(q.slots)-1, j)
	q.debugCheck()
}

// Insert places j at its policy position under ord at time now (see Less):
// after every queued job that orders before it and before every other. It
// appends at the tail, or reuses a tombstone at or just before the
// position; only when neither is possible does it shift slots, toward the
// nearest tombstone.
func (q *Queue) Insert(j *job.Job, ord Ordering, now int64, odFirst bool) {
	// Binary search over slots, comparing live jobs only: the tree finds
	// the first live slot at or after each probe point.
	lo, hi := 0, len(q.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m := q.next(mid, liveProbe); m >= 0 && m < hi && Less(q.slots[m], j, ord, now, odFirst) {
			lo = m + 1
		} else {
			hi = mid
		}
	}
	p, n := lo, len(q.slots)
	switch {
	case p < n && q.slots[p] == nil:
		q.place(p, j)
	case p > 0 && q.slots[p-1] == nil:
		q.place(p-1, j)
	case p == n:
		q.appendSlot()
		q.place(p, j)
	default:
		q.shiftInsert(p, j)
	}
	q.debugCheck()
}

// shiftInsert opens slot p (live) or p-1 for j by shifting the live run
// between it and the nearest tombstone one slot toward the tombstone,
// appending a slot when there is none.
func (q *Queue) shiftInsert(p int, j *job.Job) {
	n := len(q.slots)
	for d := 1; q.live < n; d++ {
		if r := p + d; r < n && q.slots[r] == nil {
			q.shift(p, r, 1)
			q.place(p, j)
			return
		}
		if l := p - 1 - d; l >= 0 && q.slots[l] == nil {
			q.shift(l+1, p, -1)
			q.place(p-1, j)
			return
		}
	}
	q.appendSlot()
	q.shift(p, n, 1)
	q.place(p, j)
}

// shift moves the slots [lo, hi) by delta (±1) onto a tombstone at the end
// of the move, leaving a tombstone behind at the other end, and repairs the
// tree over the touched range.
func (q *Queue) shift(lo, hi, delta int) {
	move := func(k int) {
		j := q.slots[k]
		q.slots[k+delta] = j
		q.tree[q.leaves+k+delta] = q.tree[q.leaves+k]
		q.moved(j, k+delta)
	}
	if delta > 0 {
		for k := hi - 1; k >= lo; k-- {
			move(k)
		}
		q.slots[lo] = nil
		q.tree[q.leaves+lo] = deadKey
		q.fixRange(lo, hi)
		return
	}
	for k := lo; k < hi; k++ {
		move(k)
	}
	q.slots[hi-1] = nil
	q.tree[q.leaves+hi-1] = deadKey
	q.fixRange(lo-1, hi-1)
}

// appendSlot adds a tombstone slot at the tail.
func (q *Queue) appendSlot() {
	q.slots = append(q.slots, nil)
	q.grow(len(q.slots))
}

// grow doubles the tree until it has a leaf for each of n slots.
func (q *Queue) grow(n int) {
	if n <= q.leaves {
		return
	}
	leaves := max(q.leaves, minLeaves)
	for leaves < n {
		leaves *= 2
	}
	tree := make([]qkey, 2*leaves)
	for k := range leaves {
		tree[leaves+k] = deadKey
		if k < q.leaves {
			tree[leaves+k] = q.tree[q.leaves+k]
		}
	}
	q.tree, q.leaves = tree, leaves
	q.fixRange(0, leaves-1)
}

// place puts j into the tombstone at slot k.
func (q *Queue) place(k int, j *job.Job) {
	q.slots[k] = j
	q.live++
	q.set(k, q.keyOf(j))
	q.moved(j, k)
}

// Remove tombstones slot k. When the last job leaves, the slots are
// dropped, and a large tree is released; when tombstones outnumber live
// jobs, the live ones are compacted to the front, reporting their new slots.
func (q *Queue) Remove(k int) {
	if q.slots[k] == nil {
		panic(fmt.Sprintf("policy: Remove of tombstone slot %d", k))
	}
	q.slots[k] = nil
	q.live--
	q.set(k, deadKey)
	switch {
	case q.live == 0:
		q.slots = q.slots[:0]
		if q.leaves > keepLeaves {
			q.slots, q.tree, q.leaves = nil, nil, 0
		}
	case len(q.slots)-q.live > q.live:
		n := 0
		for k, j := range q.slots {
			if j == nil {
				continue
			}
			if k != n {
				q.slots[n] = j
				q.tree[q.leaves+n] = q.tree[q.leaves+k]
				q.moved(j, n)
			}
			n++
		}
		for k := n; k < len(q.slots); k++ {
			q.slots[k] = nil
			q.tree[q.leaves+k] = deadKey
		}
		q.fixRange(0, len(q.slots)-1)
		q.slots = q.slots[:n]
	}
	q.debugCheck()
}

// Sort re-sorts the queued jobs under ord at time now (see Sort), dropping
// every tombstone and rebuilding the index. Time-dependent orderings call
// it on every pass.
func (q *Queue) Sort(ord Ordering, now int64, odFirst bool) {
	n := 0
	for _, j := range q.slots {
		if j != nil {
			q.slots[n] = j
			n++
		}
	}
	Sort(q.slots[:n], ord, now, odFirst)
	q.Reset(q.slots[:n])
}

// Reset replaces the queue's contents with jobs, in the given order, with
// no tombstones.
func (q *Queue) Reset(jobs []*job.Job) {
	old := q.slots
	q.slots = append(q.slots[:0], jobs...)
	if len(old) > len(q.slots) {
		clear(old[len(q.slots):])
	}
	q.live = len(q.slots)
	q.grow(len(q.slots))
	for k := range q.leaves {
		q.tree[q.leaves+k] = deadKey
		if k < len(q.slots) {
			q.tree[q.leaves+k] = q.keyOf(q.slots[k])
			q.moved(q.slots[k], k)
		}
	}
	if q.leaves > 0 {
		q.fixRange(0, q.leaves-1)
	}
	q.debugCheck()
}

// keyOf computes a queued job's index key.
func (q *Queue) keyOf(j *job.Job) qkey {
	return qkey{
		need: int32(min(startNeed(j, q.flexible), maxLive)),
		wall: int32(max(min(estimatedWall(j, j.Size), math.MaxInt32), math.MinInt32)),
	}
}

func minKey(a, b qkey) qkey { return qkey{need: min(a.need, b.need), wall: min(a.wall, b.wall)} }

// set writes slot k's leaf and repairs its ancestors, stopping early once
// an ancestor is unchanged.
func (q *Queue) set(k int, key qkey) {
	i := q.leaves + k
	q.tree[i] = key
	for i >>= 1; i > 0; i >>= 1 {
		m := minKey(q.tree[2*i], q.tree[2*i+1])
		if m == q.tree[i] {
			return
		}
		q.tree[i] = m
	}
}

// fixRange recomputes every ancestor of the leaves of slots lo..hi.
func (q *Queue) fixRange(lo, hi int) {
	lo += q.leaves
	hi += q.leaves
	for lo > 1 {
		lo >>= 1
		hi >>= 1
		for i := lo; i <= hi; i++ {
			q.tree[i] = minKey(q.tree[2*i], q.tree[2*i+1])
		}
	}
}

// probe is the test the backfill walk applies to a tree node: could any
// slot below it hold a job whose start need is at most need and that
// either finishes within wall or needs at most extraNeed? A node failing
// it holds no job the linear walk would start.
type probe struct{ need, extraNeed, wall int64 }

// liveProbe admits every live slot.
var liveProbe = probe{need: maxLive, extraNeed: maxLive, wall: math.MaxInt64}

func (p probe) admits(k qkey) bool {
	n := int64(k.need)
	return n <= p.need && (int64(k.wall) <= p.wall || n <= p.extraNeed)
}

// next returns the first slot at or after k whose key p admits, or -1. It
// checks slot k itself before climbing the tree, so a walk the tree cannot
// prune costs one key comparison per slot, as a linear walk would.
func (q *Queue) next(k int, p probe) int {
	if k >= len(q.slots) {
		return -1
	}
	i := q.leaves + k
	if p.admits(q.tree[i]) {
		return k
	}
	for {
		// Climb past right children: their parents' remaining ranges lie
		// before k or were already searched.
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1
		}
		i++ // the right sibling: the next unsearched range
		if !p.admits(q.tree[i]) {
			continue
		}
		// Descend. A node's mins can come from different children, so both
		// children may fail the probe; then resume climbing from there.
		for i < q.leaves {
			i <<= 1
			if !p.admits(q.tree[i]) {
				i++
				if !p.admits(q.tree[i]) {
					break
				}
			}
		}
		if i >= q.leaves && p.admits(q.tree[i]) {
			return i - q.leaves
		}
	}
}

// check verifies the queue's invariants from scratch: every live leaf key
// equals a fresh recompute, tombstone and padding leaves are dead, every
// inner node is the minimum of its children (so the root is the minimum
// over the live jobs), and the live count matches the slots.
func (q *Queue) check() error {
	if len(q.slots) > q.leaves || len(q.tree) != 2*q.leaves {
		return fmt.Errorf("policy: queue has %d slots over %d leaves (tree %d)", len(q.slots), q.leaves, len(q.tree))
	}
	live := 0
	brute := deadKey
	for k := range q.leaves {
		want := deadKey
		if k < len(q.slots) && q.slots[k] != nil {
			want = q.keyOf(q.slots[k])
			live++
			brute = minKey(brute, want)
		}
		if got := q.tree[q.leaves+k]; got != want {
			return fmt.Errorf("policy: queue slot %d key %+v, recomputed %+v", k, got, want)
		}
	}
	if live != q.live {
		return fmt.Errorf("policy: queue counts %d live jobs, slots hold %d", q.live, live)
	}
	for i := q.leaves - 1; i > 0; i-- {
		if got, want := q.tree[i], minKey(q.tree[2*i], q.tree[2*i+1]); got != want {
			return fmt.Errorf("policy: queue tree node %d is %+v, children give %+v", i, got, want)
		}
	}
	if q.leaves > 0 && q.tree[1] != brute {
		return fmt.Errorf("policy: queue root %+v, brute-force minimum %+v", q.tree[1], brute)
	}
	return nil
}

// debugCheck panics on a broken invariant in builds with the eventqdebug
// tag and compiles to nothing otherwise.
func (q *Queue) debugCheck() {
	if !debugChecks {
		return
	}
	if err := q.check(); err != nil {
		panic(err)
	}
}
