package simtest

import (
	"bytes"
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/policy"
	"hybridsched/internal/registry"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
)

// deepCell is one depth-cliff differential cell: a queue policy and a
// scheduler driving waves of jobs submitted far faster than the system can
// run them, so the waiting queue grows thousands deep.
type deepCell struct {
	policy policy.Ordering
	mech   string
	// hybrid mixes malleable and on-demand jobs (with advance notices) into
	// the waves; otherwise every job is rigid, as in the benchmark's deep
	// workload.
	hybrid bool
}

const (
	deepNodes = 128
	deepWave  = 2048
)

// deepJobs builds two waves of deepWave jobs, one second apart within a
// wave, from a fixed-seed generator.
func (c deepCell) deepJobs() []*job.Job {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	var jobs []*job.Job
	for w := 0; w < 2; w++ {
		base := int64(w) * 5 * simtime.Day
		for k := 0; k < deepWave; k++ {
			id := len(jobs) + 1
			submit := base + int64(k)
			size := 1 + next(deepNodes/16)
			work := int64(60 + next(1800))
			est := work + int64(next(900))
			switch r := next(20); {
			case c.hybrid && r < 2:
				notice := submit - int64(next(3600))
				jobs = append(jobs, job.NewOnDemand(id, 0, submit, size, work, est, 0,
					job.AccurateNotice, max(notice, 0), submit))
			case c.hybrid && r < 6:
				jobs = append(jobs, job.NewMalleable(id, 0, submit, size+8, 1+next(size), work, est, 30))
			default:
				jobs = append(jobs, job.NewRigid(id, 0, submit, size, work, est, 0, checkpoint.Plan{}))
			}
		}
	}
	return jobs
}

// engine builds the cell's engine on the optimized or the reference path,
// recording its event stream and deepest queue.
func (c deepCell) engine(t *testing.T, reference bool) (*sim.Engine, *[]sim.Event, *int) {
	t.Helper()
	mech, err := registry.NewScheduler(c.mech, registry.SchedulerConfig{DirectedReturn: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		Nodes: deepNodes, Policy: c.policy, Reference: reference, Stopwatch: simtime.Frozen,
	}, c.deepJobs(), mech)
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	deepest := 0
	e.SetEventSink(func(ev sim.Event) {
		events = append(events, ev)
		deepest = max(deepest, e.QueueDepth())
	})
	return e, &events, &deepest
}

func deepCells() []deepCell {
	return []deepCell{
		{policy: policy.FCFS{}, mech: "baseline"},
		{policy: policy.SJF{}, mech: "baseline"},
		{policy: policy.WFP3{}, mech: "baseline"},
		{policy: policy.FCFS{}, mech: "CUA&SPAA", hybrid: true},
	}
}

// TestDeepQueueDifferential holds the indexed waiting queue to the retained
// naive path on queues thousands deep: for FCFS, a time-invariant non-FCFS
// policy (SJF), a time-dependent one (WFP3) and a hybrid mechanism, the
// optimized engine and Config.Reference must emit the same event stream and
// byte-identical reports.
func TestDeepQueueDifferential(t *testing.T) {
	for _, c := range deepCells() {
		t.Run(c.policy.Name()+"/"+c.mech, func(t *testing.T) {
			t.Parallel()
			opt, optEvents, deepest := c.engine(t, false)
			optRep, err := opt.Run()
			if err != nil {
				t.Fatal(err)
			}
			ref, refEvents, _ := c.engine(t, true)
			refRep, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			if *deepest < 1000 {
				t.Fatalf("queue peaked at %d jobs; the cell must be deep", *deepest)
			}
			if len(*optEvents) != len(*refEvents) {
				t.Fatalf("optimized path emitted %d events, reference %d", len(*optEvents), len(*refEvents))
			}
			for i := range *optEvents {
				if (*optEvents)[i] != (*refEvents)[i] {
					t.Fatalf("event %d: optimized %+v, reference %+v", i, (*optEvents)[i], (*refEvents)[i])
				}
			}
			a, err := ReportJSON(optRep)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ReportJSON(refRep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("reports diverge\noptimized: %s\nreference: %s", truncate(a), truncate(b))
			}
		})
	}
}

// TestDeepQueueRestoreEquivalence snapshots the hybrid deep cell at three
// points while its first wave is queued, restores each snapshot into a fresh engine,
// and requires every resumed run to reproduce the uninterrupted report.
func TestDeepQueueRestoreEquivalence(t *testing.T) {
	c := deepCells()[3]
	run, _, _ := c.engine(t, false)
	var snaps [][]byte
	for _, point := range []int{deepWave / 2, deepWave, 3 * deepWave / 2} {
		for run.DispatchedCount() < point {
			if stepN(t, run, 1) {
				t.Fatal("run ended early")
			}
		}
		snap, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	want := finish(t, run)
	for i, snap := range snaps {
		restored, _, _ := c.engine(t, false)
		if err := restored.LoadSnapshot(snap); err != nil {
			t.Fatalf("restore point %d: %v", i+1, err)
		}
		if got := finish(t, restored); !bytes.Equal(got, want) {
			t.Fatalf("restored run diverges at point %d\ngot:  %s\nwant: %s", i+1, truncate(got), truncate(want))
		}
	}
}
