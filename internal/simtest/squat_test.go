package simtest

import (
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
)

// squatClaim is the reservation the squat scenario's backfill job occupies.
const squatClaim = 900

// squatMech reserves 40 of 100 nodes for squatClaim and lets backfill jobs
// squat on them; its timers shrink the squatter (t=100) and then evict it
// (t=200), recording the engine's squat ledger right after each step.
type squatMech struct {
	sim.Baseline
	e        *sim.Engine
	squatter *job.Job
	// squatted and reserved after the shrink and after the eviction.
	squatted, reserved [2]int
}

func (m *squatMech) Attach(e *sim.Engine) {
	m.e = e
	e.Cluster().Reserve(squatClaim, 40)
	e.SetClaimBackfillable(squatClaim, true)
	e.ScheduleTimer(100, "shrink")
	e.ScheduleTimer(200, "evict")
}

func (m *squatMech) OnTimer(payload any) {
	step := 0
	switch payload {
	case "shrink":
		m.e.ShrinkMalleable(m.squatter, 30)
	case "evict":
		step = 1
		m.e.EvictSquatters(squatClaim)
	}
	m.squatted[step] = m.e.SquattedCount(squatClaim)
	m.reserved[step] = m.e.Cluster().ReservedCount(squatClaim)
	if step == 1 {
		// Dissolve the claim so the requeued squatter runs normally.
		m.e.SetClaimBackfillable(squatClaim, false)
		m.e.Cluster().UnreserveAll(squatClaim)
	}
}

// TestSquatEvictionAfterShrink runs squat eviction through the engine: a
// malleable backfill job starts entirely on a backfillable reservation
// (BackfillReserved), shrinks by 10 nodes, and is then evicted. The shrink
// must trim the squat record — the claim has lost those nodes for good — so
// only the 30 still-squatted nodes return to the claim and the ledger drains
// to zero. The squat record is the very set the cluster hands back when the
// job's allocation is created, so this fails if the cluster ever stores that
// set as the job's allocation too (the shrink would then empty the record
// behind the engine's back and leave 10 nodes squatted forever).
func TestSquatEvictionAfterShrink(t *testing.T) {
	squatter := job.NewMalleable(3, 0, 0, 40, 10, 1000, 1000, 0)
	jobs := []*job.Job{
		job.NewRigid(1, 0, 0, 60, 10000, 10000, 0, checkpoint.Plan{}), // takes every free node
		job.NewRigid(2, 0, 0, 60, 1000, 1000, 0, checkpoint.Plan{}),   // blocked head
		squatter, // backfills onto the claim's 40 reserved nodes
	}
	mech := &squatMech{squatter: squatter}
	e, err := sim.New(sim.Config{Nodes: 100, BackfillReserved: true, Validate: true}, jobs, mech)
	if err != nil {
		t.Fatal(err)
	}
	checker := NewInvariantChecker(100)
	e.SetEventSink(checker.Sink())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := checker.Err(); err != nil {
		t.Fatal(err)
	}
	if squatter.PreemptCount != 1 || squatter.State != job.Completed {
		t.Fatalf("squatter preempted %d times, state %v; want one eviction, then completion",
			squatter.PreemptCount, squatter.State)
	}
	if mech.squatted != [2]int{30, 0} {
		t.Fatalf("squatted nodes after shrink/eviction = %v, want [30 0]", mech.squatted)
	}
	if mech.reserved != [2]int{0, 30} {
		t.Fatalf("claim's reservation after shrink/eviction = %v, want [0 30]", mech.reserved)
	}
}
