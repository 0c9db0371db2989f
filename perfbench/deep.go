package main

import (
	"fmt"
	"time"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
)

// deep is the depth cliff: a ReleaseCompleted FCFS/EASY engine on 1024
// nodes receiving short rigid jobs through Engine.Submit in waves of
// deepWave, each wave drained before the next (the shape of
// benchengine -stream). Every wave is one request.
const (
	deepNodes = 1024
	deepWave  = 8192
	deepWaves = 4
)

type deepInst struct {
	wave  int
	sizes []int
	works []int64
}

// setupDeep draws the job shapes from a seeded LCG: sizes up to 1/16 of
// the system, runtimes of one to thirty-one minutes.
func setupDeep(seed int64, _ *tracer) (instance, error) {
	return newDeep(seed, deepWaves, deepWave), nil
}

func newDeep(seed int64, waves, wave int) *deepInst {
	rng := uint64(inputSeed(seed, "deep"))
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	d := &deepInst{wave: wave}
	for i := 0; i < waves*wave; i++ {
		d.sizes = append(d.sizes, 1+next(deepNodes/16+1))
		d.works = append(d.works, int64(60+next(1800)))
	}
	return d
}

func (d *deepInst) prepare() error { return nil }
func (d *deepInst) close()         {}

func (d *deepInst) iterate(m *meter, tr *tracer) (iteration, error) {
	it := iteration{}
	m.begin()
	dr, err := newStepper(sim.Config{Nodes: deepNodes, ReleaseCompleted: true}, nil, timed(sim.Baseline{}, tr), tr, m)
	if err != nil {
		return it, err
	}
	id := 0
	for id < len(d.sizes) {
		t0 := time.Now()
		base := dr.e.Now()
		for k := 0; k < d.wave; k++ {
			id++
			size, work := d.sizes[id-1], d.works[id-1]
			j := job.NewRigid(id, 0, base+int64(k), size, work, work, 0, checkpoint.Plan{})
			it.attempted++
			if err := dr.submit(j); err != nil {
				it.failed++
				warn(fmt.Errorf("deep: submit job %d: %w", id, err))
			}
		}
		if err := dr.drain(); err != nil {
			return it, err
		}
		it.latencyMS = append(it.latencyMS, float64(time.Since(t0))/1e6)
	}
	m.end()
	// Every submitted job must have completed.
	if missing := dr.e.SubmittedCount() - dr.e.CompletedCount(); missing != 0 || dr.e.SubmittedCount() != id {
		it.failed += max(missing, 1)
		warn(fmt.Errorf("deep: %d of %d submitted jobs completed", dr.e.CompletedCount(), dr.e.SubmittedCount()))
	}
	it.events = dr.e.DispatchedCount()
	if err := dr.finish(); err != nil {
		return it, err
	}
	it.counts = map[string]int64{"eventq.pops": int64(it.events), "requests": int64(len(it.latencyMS))}
	it.live = dr
	return it, nil
}
