package sim

import (
	"math"
	"testing"

	"hybridsched/internal/job"
)

// releaseWorkload builds a deterministic mixed workload of n jobs.
func releaseWorkload(n int) []*job.Job {
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		id := i + 1
		submit := int64(i) * 50
		switch i % 3 {
		case 0:
			jobs = append(jobs, rigid(id, submit, 10+(i%17)*3, 900+int64(i%13)*120))
		case 1:
			jobs = append(jobs, malleable(id, submit, 20+(i%11)*2, 5, 1500+int64(i%7)*200))
		default:
			jobs = append(jobs, onDemand(id, submit, 8+(i%9)*2, 600+int64(i%5)*90))
		}
	}
	return jobs
}

func near(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestReleaseCompletedReportMatches runs the same workload with and without
// ReleaseCompleted: the streamed report must agree on every aggregate the
// streaming collector claims to compute exactly (counts, means, extrema,
// rates, the node-second ledger), while dropping the per-job list.
func TestReleaseCompletedReportMatches(t *testing.T) {
	full, err := New(Config{Nodes: 200, Validate: true}, releaseWorkload(400), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	lean, err := New(Config{Nodes: 200, Validate: true, ReleaseCompleted: true}, releaseWorkload(400), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != want.Jobs || got.Makespan != want.Makespan {
		t.Fatalf("jobs/makespan: %d/%d vs %d/%d", got.Jobs, got.Makespan, want.Jobs, want.Makespan)
	}
	if got.PerJob != nil {
		t.Fatal("streamed report must not retain a per-job list")
	}
	cmp := func(name string, g, w float64) {
		if !near(g, w) {
			t.Fatalf("%s: %g vs %g", name, g, w)
		}
	}
	cmp("all mean", got.All.Turnaround.Mean, want.All.Turnaround.Mean)
	cmp("all min", got.All.Turnaround.Min, want.All.Turnaround.Min)
	cmp("all max", got.All.Turnaround.Max, want.All.Turnaround.Max)
	cmp("all std", got.All.Turnaround.Std, want.All.Turnaround.Std)
	if got.All.Count != want.All.Count || got.Rigid.Count != want.Rigid.Count ||
		got.OnDemand.Count != want.OnDemand.Count || got.Malleable.Count != want.Malleable.Count {
		t.Fatalf("class counts diverge: %+v vs %+v", got.All, want.All)
	}
	cmp("rigid mean", got.Rigid.Turnaround.Mean, want.Rigid.Turnaround.Mean)
	cmp("od mean", got.OnDemand.Turnaround.Mean, want.OnDemand.Turnaround.Mean)
	cmp("malleable mean", got.Malleable.Turnaround.Mean, want.Malleable.Turnaround.Mean)
	cmp("instant rate", got.InstantStartRate, want.InstantStartRate)
	cmp("strict instant rate", got.StrictInstantStartRate, want.StrictInstantStartRate)
	cmp("mean start delay", got.MeanStartDelay, want.MeanStartDelay)
	cmp("utilization", got.Utilization, want.Utilization)
	cmp("useful", got.Breakdown.Useful, want.Breakdown.Useful)

	// Every completed job must have been forgotten.
	if n := len(lean.sparse); n != 0 {
		t.Fatalf("%d index entries survive the run", n)
	}
	if lean.jobs != nil {
		t.Fatal("registration list survives priming")
	}
	if len(lean.dense) != 0 {
		t.Fatal("ReleaseCompleted run must not build the dense table")
	}
	if lean.SubmittedCount() != 400 || lean.CompletedCount() != 400 {
		t.Fatalf("counters: %d submitted, %d completed", lean.SubmittedCount(), lean.CompletedCount())
	}
}

// TestReleaseCompletedBoundedLiveEntries streams jobs through Submit in waves
// and checks the live index never grows with the total: the engine holds only
// in-flight jobs.
func TestReleaseCompletedBoundedLiveEntries(t *testing.T) {
	e, err := New(Config{Nodes: 100, ReleaseCompleted: true}, nil, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	const waves, perWave = 40, 25
	maxLive := 0
	id := 0
	for w := 0; w < waves; w++ {
		base := e.Now()
		for k := 0; k < perWave; k++ {
			id++
			if err := e.Submit(rigid(id, base+int64(k), 10+(k%5)*10, 200+int64(k%7)*40)); err != nil {
				t.Fatal(err)
			}
		}
		// Drain this wave completely before the next.
		for {
			more, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if live := len(e.sparse); live > maxLive {
				maxLive = live
			}
			if !more {
				break
			}
		}
	}
	total := waves * perWave
	if e.CompletedCount() != total {
		t.Fatalf("completed %d of %d", e.CompletedCount(), total)
	}
	if maxLive > perWave {
		t.Fatalf("live index peaked at %d entries (wave size %d): completed jobs are being retained", maxLive, perWave)
	}
	if len(e.sparse) != 0 {
		t.Fatalf("%d entries survive", len(e.sparse))
	}
}

// TestReleaseCompletedRefusesSnapshot pins the documented incompatibility.
func TestReleaseCompletedRefusesSnapshot(t *testing.T) {
	e, err := New(Config{Nodes: 100, ReleaseCompleted: true}, releaseWorkload(3), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("Snapshot must be refused")
	}
	if err := e.LoadSnapshot(nil); err == nil {
		t.Fatal("LoadSnapshot must be refused")
	}
}

// TestReleaseCompletedRefusesReusedID resubmits the IDs of completed jobs —
// in the bitmap's range, negative, and far beyond it — to an engine that
// has forgotten them: each must be refused as a duplicate, and a fresh ID
// must still be accepted.
func TestReleaseCompletedRefusesReusedID(t *testing.T) {
	e, err := New(Config{Nodes: 100, ReleaseCompleted: true}, nil, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 2, 3, -5, 1 << 40}
	for k, id := range ids {
		if err := e.Submit(rigid(id, int64(k), 10, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.CompletedCount() != len(ids) || len(e.sparse) != 0 {
		t.Fatalf("completed %d of %d, %d entries live", e.CompletedCount(), len(ids), len(e.sparse))
	}
	for _, id := range ids {
		if err := e.Submit(rigid(id, e.Now(), 10, 200)); err == nil {
			t.Fatalf("Submit of completed job ID %d accepted", id)
		}
	}
	if err := e.Submit(rigid(4, e.Now(), 10, 200)); err != nil {
		t.Fatalf("fresh ID refused: %v", err)
	}
}
