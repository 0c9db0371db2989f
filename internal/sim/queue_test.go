package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/policy"
	"hybridsched/internal/simtime"
)

// deepWaves builds the depth-cliff shape on a small system: waves of short
// jobs submitted one second apart, far faster than 96 nodes can run them,
// so the waiting queue grows over a thousand deep and drains between waves.
// Every fifth job is malleable, so flexible sizing and the wall-time key of
// malleable jobs are exercised too.
func deepWaves(waves, wave int) []*job.Job {
	rng := uint64(0x2545F4914F6CDD1D)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	var jobs []*job.Job
	for w := 0; w < waves; w++ {
		base := int64(w) * 4 * simtime.Day
		for k := 0; k < wave; k++ {
			id := len(jobs) + 1
			size := 1 + next(12)
			work := int64(60 + next(1800))
			if id%5 == 0 {
				jobs = append(jobs, job.NewMalleable(id, 0, base+int64(k), size+4, 1+next(size), work, work+int64(next(600)), 0))
				continue
			}
			jobs = append(jobs, job.NewRigid(id, 0, base+int64(k), size, work, work+int64(next(600)), 0, checkpoint.Plan{}))
		}
	}
	return jobs
}

// stepChecked advances e by one event and verifies its queue index every
// 16th event and at the end (builds with the eventqdebug tag verify it on
// every pass).
func stepChecked(t *testing.T, e *Engine) bool {
	t.Helper()
	more, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	if e.DispatchedCount()%16 == 0 || !more {
		if err := e.checkQueue(); err != nil {
			t.Fatal(err)
		}
	}
	return more
}

// reportBytes is the engine's report as JSON; the engines run on a frozen
// stopwatch, so the bytes are deterministic.
func reportBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.Report())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeepQueueSnapshotWithTombstones snapshots a deep queue in the middle
// of a wave, at an instant where its index holds tombstones, restores the
// snapshot into a fresh engine, and requires the restored engine to stay
// byte-identical to the uninterrupted one: same snapshot bytes a few hundred
// events later, same report at the end.
func TestDeepQueueSnapshotWithTombstones(t *testing.T) {
	for _, ord := range []policy.Ordering{policy.FCFS{}, policy.SJF{}, policy.WFP3{}} {
		t.Run(ord.Name(), func(t *testing.T) {
			cfg := Config{Nodes: 96, Policy: ord, Stopwatch: simtime.Frozen}
			mech := flexibleBaseline{}
			run, err := New(cfg, deepWaves(2, 1500), mech)
			if err != nil {
				t.Fatal(err)
			}
			for run.QueueDepth() < 1000 || run.queue.Slots() == run.queue.Len() {
				if !stepChecked(t, run) {
					t.Fatal("run ended before the queue was deep and held tombstones")
				}
			}
			snap, err := run.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := New(cfg, deepWaves(2, 1500), mech)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				stepChecked(t, run)
				stepChecked(t, restored)
			}
			a, err := run.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("restored engine's snapshot diverges from the uninterrupted run's")
			}
			for stepChecked(t, run) {
			}
			for stepChecked(t, restored) {
			}
			if !bytes.Equal(reportBytes(t, run), reportBytes(t, restored)) {
				t.Fatal("restored run's report diverges from the uninterrupted run's")
			}
		})
	}
}

// flexibleBaseline is the baseline scheduler with flexible malleable sizing,
// so the queue's need keys use malleable minimum sizes.
type flexibleBaseline struct{ Baseline }

func (flexibleBaseline) FlexibleMalleable() bool { return true }
