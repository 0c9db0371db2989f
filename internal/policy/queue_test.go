package policy

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hybridsched/internal/job"
)

// slotBook records the slots a Queue reports, as an engine's job index would.
type slotBook map[int]int

func (b slotBook) moved(j *job.Job, slot int) { b[j.ID] = slot }

// checkQueue verifies q's invariants and that it holds exactly want, in
// order, with every live job at the slot the book last recorded for it.
func checkQueue(t *testing.T, q *Queue, book slotBook, want []*job.Job) {
	t.Helper()
	if err := q.check(); err != nil {
		t.Fatal(err)
	}
	got := q.Jobs()
	if len(got) != len(want) || q.Len() != len(want) {
		t.Fatalf("queue holds %d jobs (Len %d), want %d", len(got), q.Len(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: job %d, want %d", i, got[i].ID, want[i].ID)
		}
		if q.At(book[got[i].ID]) != got[i] {
			t.Fatalf("job %d: recorded slot %d holds another job", got[i].ID, book[got[i].ID])
		}
	}
	minNeed := int(^uint(0) >> 1)
	for _, j := range want {
		minNeed = min(minNeed, startNeed(j, q.flexible))
	}
	if q.MinNeed() != minNeed {
		t.Fatalf("MinNeed %d, brute force %d", q.MinNeed(), minNeed)
	}
}

// TestQueueOperationsMatchFlatModel drives a Queue through random inserts,
// appends, removals and re-sorts, and holds it after every operation to a
// flat slice maintained the pre-index way: binary-search insertion, removal
// by copy, stable sort.
func TestQueueOperationsMatchFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ord Ordering = FCFS{}
		if seed%3 == 0 {
			ord = SJF{}
		}
		odFirst := seed%2 == 0
		book := slotBook{}
		q := NewQueue(seed%4 < 2, book.moved)
		var model []*job.Job
		nextID := 1
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(model) == 0:
				j := randomJob(rng, nextID)
				nextID++
				if rng.Intn(8) == 0 {
					// Re-sorting orders by policy, so appends are only
					// comparable to the model until the next Sort.
					q.Sort(ord, 0, odFirst)
					Sort(model, ord, 0, odFirst)
				}
				i := sort.Search(len(model), func(k int) bool { return !Less(model[k], j, ord, 0, odFirst) })
				model = slices.Insert(model, i, j)
				q.Insert(j, ord, 0, odFirst)
			case r < 9:
				// Bursts of removals near the head, as starts produce.
				i := rng.Intn(min(len(model), 1+rng.Intn(8)))
				if rng.Intn(3) == 0 {
					i = rng.Intn(len(model))
				}
				q.Remove(book[model[i].ID])
				model = slices.Delete(model, i, i+1)
			default:
				j := randomJob(rng, nextID)
				nextID++
				q.Append(j)
				model = append(model, j)
				q.Sort(ord, 0, odFirst)
				Sort(model, ord, 0, odFirst)
			}
			checkQueue(t, q, book, model)
		}
	}
}

// TestQueueDrainReleasesLargeIndex checks that a queue emptied after growing
// past keepLeaves drops its slots and tree, and works again afterwards.
func TestQueueDrainReleasesLargeIndex(t *testing.T) {
	book := slotBook{}
	q := NewQueue(false, book.moved)
	var jobs []*job.Job
	for i := 1; i <= 3*keepLeaves; i++ {
		j := rigid(i, int64(i), 1+i%7, 100)
		jobs = append(jobs, j)
		q.Insert(j, FCFS{}, 0, false)
	}
	for _, j := range jobs {
		q.Remove(book[j.ID])
	}
	if q.Len() != 0 || q.leaves != 0 || q.tree != nil || q.slots != nil {
		t.Fatalf("drained queue kept %d leaves, %d slots", q.leaves, len(q.slots))
	}
	j := rigid(1, 0, 3, 100)
	q.Insert(j, FCFS{}, 0, false)
	checkQueue(t, q, book, []*job.Job{j})
}

func randomJob(rng *rand.Rand, id int) *job.Job {
	submit := int64(rng.Intn(200))
	size := 1 + rng.Intn(32)
	est := int64(1 + rng.Intn(5000))
	switch rng.Intn(3) {
	case 0:
		return rigid(id, submit, size, est)
	case 1:
		return malleable(id, submit, size, 1+rng.Intn(size), est)
	}
	return onDemand(id, submit, size, est)
}

// genDeepInstance builds a planner instance with up to a few hundred queued
// jobs in FCFS order inside an indexed Queue that also carries tombstones
// (jobs inserted among them and removed again). Most jobs are too large for
// the free pool, so the index has long runs to skip; a few fit, so the walk
// must still find them.
func genDeepInstance(rng *rand.Rand) (q *Queue, running []Running, now int64, free, bf int, ownReserve map[int]int) {
	book := slotBook{}
	q = NewQueue(rng.Intn(2) == 0, book.moved)
	ownReserve = map[int]int{}
	nq := rng.Intn(300)
	var ghosts []*job.Job
	for i := 0; i < nq; i++ {
		id := i + 1
		size := 1 + rng.Intn(64)
		if rng.Intn(4) > 0 {
			size = 24 + rng.Intn(40)
		}
		est := int64(1 + rng.Intn(3000))
		var j *job.Job
		switch rng.Intn(4) {
		case 0, 1:
			j = rigid(id, int64(i), size, est)
		case 2:
			j = malleable(id, int64(i), size, 1+rng.Intn(size), est)
		default:
			j = onDemand(id, int64(i), size, est)
		}
		if rng.Intn(6) == 0 {
			ownReserve[id] = 1 + rng.Intn(8)
		}
		q.Insert(j, FCFS{}, 0, false)
		if rng.Intn(3) == 0 {
			// A ghost submitted at the same instant orders right after j.
			g := rigid(10000+id, int64(i), 1, 1)
			ghosts = append(ghosts, g)
			q.Insert(g, FCFS{}, 0, false)
		}
	}
	for _, g := range ghosts {
		if rng.Intn(5) > 0 {
			q.Remove(book[g.ID])
		}
	}
	for i, nr := 0, rng.Intn(12); i < nr; i++ {
		running = append(running, Running{
			EstEnd: int64(250 * (1 + rng.Intn(12))),
			Nodes:  1 + rng.Intn(48),
			ID:     20000 + i,
		})
	}
	sort.Slice(running, func(i, j int) bool { return relLess(running[i], running[j]) })
	return q, running, int64(rng.Intn(300)), rng.Intn(40), rng.Intn(12), ownReserve
}

// TestPlanQueueMatchesLinearAndBruteForce pins the indexed walk to the linear
// PlanEASYSorted and to the brute-force EASY oracle on deep queues with
// tombstones, private reservations, on-demand candidates, a shared backfill
// reserve, and both sizing modes (flexible malleable jobs included).
func TestPlanQueueMatchesLinearAndBruteForce(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, running, now, free, bf, ownReserve := genDeepInstance(rng)
		var ownFn func(*job.Job) int
		ownBound := 0
		if len(ownReserve) > 0 && rng.Intn(4) > 0 {
			ownFn = func(j *job.Job) int { return ownReserve[j.ID] }
			for _, n := range ownReserve {
				ownBound += n
			}
		} else {
			ownReserve = nil
		}
		live := q.Jobs()

		want := refPlanEASY(now, live, running, free, bf, ownReserve, q.flexible)
		var pl Planner
		lin := pl.PlanEASYSorted(now, live, running, uint64(seed), free, bf, ownFn, q.flexible)
		if !sameStarts(want, lin) {
			t.Logf("seed %d: PlanEASYSorted diverges from the oracle: want %+v got %+v", seed, want, lin)
			return false
		}
		var pi Planner
		for pass := 0; pass < 2; pass++ {
			got := pi.PlanQueue(now, q, running, uint64(seed), free, bf, ownBound, ownFn)
			if !sameStarts(want, got) {
				t.Logf("seed %d pass %d: PlanQueue diverges: want %+v got %+v", seed, pass, want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanQueueSkipsUnstartableRuns checks that the index actually prunes:
// on a queue where only the last job can backfill, the walk reaches it
// without visiting the slots in between.
func TestPlanQueueSkipsUnstartableRuns(t *testing.T) {
	book := slotBook{}
	q := NewQueue(false, book.moved)
	for i := 1; i <= 4096; i++ {
		q.Insert(rigid(i, int64(i), 50, 1000), FCFS{}, 0, false)
	}
	small := rigid(5000, 5000, 2, 100)
	q.Insert(small, FCFS{}, 0, false)
	visits := 0
	for k := q.next(1, backfillProbe(0, 4, 0, 0, 500, 0)); k >= 0; k = q.next(k+1, backfillProbe(0, 4, 0, 0, 500, 0)) {
		visits++
		if q.At(k) != small {
			t.Fatalf("walk visited job %d, which cannot start", q.At(k).ID)
		}
	}
	if visits != 1 {
		t.Fatalf("walk visited %d candidates, want 1", visits)
	}
	var p Planner
	starts := p.PlanQueue(0, q, []Running{{EstEnd: 500, Nodes: 100, ID: 9000}}, 1, 4, 0, 0, nil)
	if len(starts) != 1 || starts[0].J != small {
		t.Fatalf("starts %+v, want only job %d", starts, small.ID)
	}
}
