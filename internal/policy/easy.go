package policy

import (
	"sort"

	"hybridsched/internal/job"
)

// Running describes a running job for backfill planning: when the scheduler
// expects its nodes back (estimate-based, never the actual end), how many
// nodes it holds, and which job it is. The release list is ordered by
// (EstEnd, ID) — a total order — so an incrementally maintained list and a
// freshly sorted one agree bit-for-bit even when estimated ends tie.
type Running struct {
	EstEnd int64
	Nodes  int
	ID     int
}

// relLess is the release-list order: by estimated end, ties by job ID.
func relLess(a, b Running) bool {
	if a.EstEnd != b.EstEnd {
		return a.EstEnd < b.EstEnd
	}
	return a.ID < b.ID
}

// RelLess reports whether a orders before b in the release list — the
// (EstEnd, ID) total order PlanEASYSorted requires callers to maintain.
func RelLess(a, b Running) bool { return relLess(a, b) }

// Start is a planner decision: start job J on Size nodes now.
type Start struct {
	J    *job.Job
	Size int
}

// maxInt64 stands in for an unbounded shadow time.
const maxInt64 = int64(^uint64(0) >> 1)

// Planner computes EASY-backfilling plans with reusable scratch buffers, so a
// scheduler invoking it once per event allocates nothing in steady state. The
// zero value is ready to use. A Planner is not safe for concurrent use, and
// each PlanEASY call invalidates the slice returned by the previous one.
type Planner struct {
	starts []Start
	rel    []Running

	// Memoized phase-2 shadow/extra for PlanEASYSorted, keyed by everything
	// the computation reads: the head's residual need, the free pool, and the
	// caller's release-list version. See PlanEASYSorted.
	shadowValid    bool
	shadowHeadNeed int
	shadowFree     int
	shadowRelVer   uint64
	shadowTime     int64
	shadowExtra    int
}

// PlanEASY computes the set of waiting jobs to start now under FCFS/EASY
// semantics (Mu'alem & Feitelson, TPDS'01):
//
//  1. Jobs start from the head of the (already ordered) queue while they fit
//     in the free pool.
//  2. The first job that does not fit gets a reservation at the shadow time —
//     the earliest instant at which enough running jobs will have released
//     nodes (by their estimates).
//  3. Jobs behind it may backfill if they fit now and either finish (by their
//     estimate) before the shadow time or use only capacity the head job will
//     not need (the "extra" nodes, plus reserved capacity invisible to it).
//
// Malleable jobs are sized greedily: the largest feasible size wins; a
// malleable head job only needs its minimum size to start.
//
// ownReserve reports nodes privately reserved for a specific waiting job —
// the directed returns of the paper's on-demand completion rule and the
// partial gathers of an on-demand job that could not start instantly. A job
// consumes its own reservation before touching the free pool, and private
// nodes never count against the head job's extra-node slack. nil means no
// private reservations.
//
// backfillExtra adds shared reserved-node capacity usable by backfill
// candidates only (paper §III-B.1: nodes reserved for a future on-demand job
// may host backfill jobs that are preempted the moment it arrives); the queue
// head never starts on that capacity.
// flexible enables malleable sizing: when false (the Table II baseline:
// "no special treatments"), malleable jobs are scheduled rigidly at their
// maximum size.
//
// The returned slice is owned by the Planner and valid until its next call.
func (p *Planner) PlanEASY(now int64, queue []*job.Job, running []Running, free, backfillExtra int, ownReserve func(*job.Job) int, flexible bool) []Start {
	return p.plan(now, queue, nil, running, free, backfillExtra, 0, ownReserve, flexible, false, 0)
}

// PlanEASYSorted is PlanEASY for a release list the caller maintains already
// sorted by (EstEnd, ID): the per-pass copy and sort disappear, and the
// phase-2 shadow/extra computation is memoized. relVersion must change
// whenever the contents of running change (any insert, removal, or estimate
// update); together with the head's residual need and the free count it keys
// the cached result, so a pass repeated against an unchanged running set and
// free pool skips the release-list scan entirely.
func (p *Planner) PlanEASYSorted(now int64, queue []*job.Job, running []Running, relVersion uint64, free, backfillExtra int, ownReserve func(*job.Job) int, flexible bool) []Start {
	return p.plan(now, queue, nil, running, free, backfillExtra, 0, ownReserve, flexible, true, relVersion)
}

// PlanQueue is PlanEASYSorted over an indexed Queue, sized under the
// queue's sizing mode. It plans exactly the starts PlanEASYSorted would
// plan for the queue's live jobs, but the backfill phase visits only the
// slots whose index keys can pass both of these tests:
//
//	need <= free + backfillExtra + ownBound
//	wall <= shadow - now, or need <= extra + backfillExtra + ownBound
//
// where need is a job's start need, wall its estimated wall time at full
// size, and extra the head's extra-node slack. Every candidate the linear
// walk starts passes both: a job draws at most ownBound from its own
// reservation and at most backfillExtra from the shared reserve, and a
// malleable job's wall time at any size it could start on is at least its
// wall at full size. Starting a candidate only lowers the right-hand sides,
// so a slot the index skips is one the linear walk would reject.
//
// ownBound must be at least ownReserve(j) for every queued job j (the
// caller's total reserved-node count does); with ownReserve nil it is 0.
func (p *Planner) PlanQueue(now int64, q *Queue, running []Running, relVersion uint64, free, backfillExtra, ownBound int, ownReserve func(*job.Job) int) []Start {
	return p.plan(now, q.slots, q, running, free, backfillExtra, ownBound, ownReserve, q.flexible, true, relVersion)
}

// PlanEASY is the allocation-per-call form of Planner.PlanEASY, retained for
// one-shot callers and the engine's naive reference path.
func PlanEASY(now int64, queue []*job.Job, running []Running, free, backfillExtra int, ownReserve func(*job.Job) int, flexible bool) []Start {
	var p Planner
	return p.PlanEASY(now, queue, running, free, backfillExtra, ownReserve, flexible)
}

// startNeed is the smallest node count that lets j start as the (unblocked)
// queue head: its minimum size under flexible sizing, its full size otherwise.
func startNeed(j *job.Job, flexible bool) int {
	if flexible {
		return minStart(j)
	}
	return j.Size
}

// plan is the shared three-phase EASY pass behind every entry point. With
// an index it walks q's slots (queue is q.slots), skipping tombstones and,
// in phase 3, every slot the index proves cannot start; without one it
// walks queue linearly.
func (p *Planner) plan(now int64, queue []*job.Job, q *Queue, running []Running, free, backfillExtra, ownBound int, ownReserve func(*job.Job) int, flexible, sorted bool, relVer uint64) []Start {
	own := func(j *job.Job) int {
		if ownReserve == nil {
			return 0
		}
		return ownReserve(j)
	}

	starts := p.starts[:0]
	idx := q.seek(queue, 0, liveProbe)

	// Phase 1: run the head of the queue while it fits.
	for idx >= 0 {
		j := queue[idx]
		avail := free + own(j)
		if startNeed(j, flexible) > avail {
			break
		}
		size := j.Size
		if flexible {
			size = chooseSize(j, avail)
		}
		starts = append(starts, Start{J: j, Size: size})
		fromOwn := own(j)
		if fromOwn > size {
			fromOwn = size
		}
		free -= size - fromOwn
		idx = q.seek(queue, idx+1, liveProbe)
	}
	if idx < 0 {
		p.starts = starts
		return starts
	}

	// Phase 2: reservation for the blocked head. The head's own reservation
	// reduces what it needs from the free pool and future releases.
	head := queue[idx]
	headNeed := startNeed(head, flexible) - own(head)
	shadow, extra := p.shadowAndExtra(running, free, headNeed, sorted, relVer)

	// Phase 3: backfill the rest of the queue in priority order.
	for {
		idx = q.seek(queue, idx+1, backfillProbe(now, free, backfillExtra, ownBound, shadow, extra))
		if idx < 0 {
			break
		}
		j := queue[idx]
		// On-demand jobs never run on other jobs' reserved capacity: a
		// squatter is preemptable, and on-demand jobs must not be.
		bfExtra := backfillExtra
		if j.Class == job.OnDemand {
			bfExtra = 0
		}
		size, usedExtra, ok := chooseBackfillSize(now, j, free, own(j), bfExtra, shadow, extra, flexible)
		if !ok {
			continue
		}
		starts = append(starts, Start{J: j, Size: size})
		// Consumption order: own reservation, then free pool, then shared
		// reserved capacity.
		rest := size - own(j)
		if rest < 0 {
			rest = 0
		}
		fromFree := rest
		if fromFree > free {
			fromFree = free
		}
		// The shared reserve is charged the larger of the physical overflow
		// (nodes the free pool could not supply) and the extra-rule overflow
		// (the part of the draw the head's slack does not cover). Charging
		// only on free-pool underflow let two extra-rule candidates each size
		// against the full shared reserve — the double-spend this fixes.
		reserveUse := rest - fromFree
		if usedExtra {
			if over := rest - extra; over > reserveUse {
				reserveUse = over
			}
		}
		backfillExtra -= reserveUse
		free -= fromFree
		if usedExtra {
			extra -= rest - reserveUse
			if extra < 0 {
				extra = 0
			}
		}
	}
	p.starts = starts
	return starts
}

// seek returns the first slot at or after k that the walk visits, or -1:
// with an index, the next slot whose key p admits; without one, k itself
// while it lies in queue.
func (q *Queue) seek(queue []*job.Job, k int, p probe) int {
	if q != nil {
		return q.next(k, p)
	}
	if k < len(queue) {
		return k
	}
	return -1
}

// backfillProbe is the index test a phase-3 candidate must pass under the
// current pools (see PlanQueue).
func backfillProbe(now int64, free, backfillExtra, ownBound int, shadow int64, extra int) probe {
	p := probe{
		need:      int64(min(free+backfillExtra+ownBound, maxLive)),
		extraNeed: int64(min(extra+backfillExtra+ownBound, maxLive)),
		wall:      maxInt64,
	}
	if shadow != maxInt64 {
		p.wall = shadow - now
	}
	return p
}

// shadowAndExtra computes the head job's reservation: the shadow time at
// which headNeed nodes become available (estimate-based), and the number of
// extra nodes left over at that instant beyond the head's need. If the head
// can never be satisfied from running-job releases (e.g. reservations hold
// nodes back), the shadow is unbounded and only the fits-now constraint
// applies to backfill candidates. With sorted unset the release list is
// copied into planner scratch and ordered by (EstEnd, ID) — the caller's
// slice is never reordered; with sorted set the caller guarantees that order
// and the result is memoized under (headNeed, free, relVer).
func (p *Planner) shadowAndExtra(running []Running, free, headNeed int, sorted bool, relVer uint64) (shadow int64, extra int) {
	avail := free
	if avail >= headNeed {
		return maxInt64, avail - headNeed
	}
	rel := running
	if !sorted {
		rel = append(p.rel[:0], running...)
		p.rel = rel
		sort.Slice(rel, func(i, j int) bool { return relLess(rel[i], rel[j]) })
	} else if p.shadowValid && p.shadowHeadNeed == headNeed && p.shadowFree == free && p.shadowRelVer == relVer {
		return p.shadowTime, p.shadowExtra
	}
	shadow, extra = maxInt64, 0
	for _, r := range rel {
		avail += r.Nodes
		if avail >= headNeed {
			shadow, extra = r.EstEnd, avail-headNeed
			break
		}
	}
	if sorted {
		p.shadowValid = true
		p.shadowHeadNeed = headNeed
		p.shadowFree = free
		p.shadowRelVer = relVer
		p.shadowTime = shadow
		p.shadowExtra = extra
	}
	return shadow, extra
}

// minStart is the smallest node count on which j can be started.
func minStart(j *job.Job) int {
	if j.Class == job.Malleable {
		return j.MinSize
	}
	return j.Size
}

// chooseSize picks the start size given available nodes: fixed jobs take
// their size; malleable jobs take the largest size that fits.
func chooseSize(j *job.Job, avail int) int {
	if j.Class != job.Malleable {
		return j.Size
	}
	if avail >= j.Size {
		return j.Size
	}
	return avail // >= MinSize, checked by the caller
}

// estimatedWall returns the scheduler-visible wall time of starting j now on
// n nodes.
func estimatedWall(j *job.Job, n int) int64 {
	if j.Class == job.Malleable {
		return j.EstimatedMalleableWall(n)
	}
	return j.EstimatedWallIfStarted()
}

// chooseBackfillSize picks a feasible backfill size for j, or reports that
// none exists. usedExtra reports that the job relies on the head's
// extra-node slack (it will still be running at the shadow time).
//
// Feasibility of size n: n <= own+free+reservedExtra now, and either the
// estimated end is before the shadow time, or the draw beyond the job's own
// reservation fits within the head's extra slack plus the shared reserved
// capacity — both invisible to the head job (private reservations never
// counted against it, and reserved nodes host only preemptable squatters it
// can displace). For malleable jobs the estimated wall is non-increasing in
// n, so the largest candidate is optimal under the time rule; when only the
// extra rule admits the job, the largest size it admits is own+extra+
// reservedExtra. (The pre-fix fallback capped at own+extra, ignoring the
// reserved headroom the fits-now rule already admitted — undersizing every
// malleable backfill whenever on-demand reservations existed.)
func chooseBackfillSize(now int64, j *job.Job, free, own, reservedExtra int, shadow int64, extra int, flexible bool) (size int, usedExtra, ok bool) {
	capacity := own + free + reservedExtra
	if !flexible || j.Class != job.Malleable {
		size = j.Size
		if size > capacity {
			return 0, false, false
		}
		if shadow == maxInt64 || now+estimatedWall(j, size) <= shadow {
			return size, false, true
		}
		if size-own <= extra+reservedExtra {
			return size, true, true
		}
		return 0, false, false
	}
	upper := j.Size
	if upper > capacity {
		upper = capacity
	}
	if upper < j.MinSize {
		return 0, false, false
	}
	// The time rule is easiest at the largest size.
	if shadow == maxInt64 || now+estimatedWall(j, upper) <= shadow {
		return upper, false, true
	}
	// Time rule fails at every size; fall back to the extra-node rule.
	n := own + extra + reservedExtra
	if n > upper {
		n = upper
	}
	if n >= j.MinSize {
		return n, true, true
	}
	return 0, false, false
}
