package main

import (
	"fmt"
	"sort"
	"strconv"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/core"
	"hybridsched/internal/faults"
	"hybridsched/internal/policy"
	"hybridsched/internal/registry"
	"hybridsched/internal/runner"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtest"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// cell is one simulation of a generated trace under one scheduler, with the
// runner's paper defaults: FCFS/EASY, Daly checkpointing at 24 h MTBF,
// directed returns, and optional fault injection.
type cell struct {
	mech        string
	mix         string
	seed        int64 // workload seed; the fault timeline reuses it
	nodes       int
	weeks       int
	faultMTBF   float64 // seconds; 0 = no faults
	faultRepair float64 // mean repair, seconds
}

// spec is the cell as a runner sweep coordinate.
func (c cell) spec() (runner.Spec, error) {
	mix, err := workload.MixByName(c.mix)
	if err != nil {
		return runner.Spec{}, err
	}
	variant := c.mix
	if c.faultMTBF > 0 {
		variant += "+faults"
	}
	return runner.Spec{
		Group: "fig6", Variant: variant, Mechanism: c.mech, Nodes: c.nodes,
		Workload:  workload.Config{Seed: c.seed, Nodes: c.nodes, Weeks: c.weeks, Mix: mix},
		FaultMTBF: c.faultMTBF, FaultMeanRepair: c.faultRepair,
	}, nil
}

// engine builds the cell's engine over recs the way the runner builds a
// sweep cell. reference selects the engine's retained naive path. On traced
// runs the mechanism is wrapped inside the fault injector, so fault timers
// are not charged to the mechanism.
func (c cell) engine(recs []trace.Record, reference bool, tr *tracer, m *meter) (*stepper, error) {
	jobs := trace.Materialize(recs, func(size int) checkpoint.Plan {
		return checkpoint.NewPlan(size, 24*float64(simtime.Hour), 1)
	})
	cc := core.DefaultConfig()
	mech, err := registry.NewScheduler(c.mech, registry.SchedulerConfig{
		ReleaseThreshold: cc.ReleaseThreshold,
		DirectedReturn:   cc.DirectedReturn,
		BackfillReserved: cc.BackfillReserved,
	})
	if err != nil {
		return nil, err
	}
	mech = timed(mech, tr)
	if c.faultMTBF > 0 {
		mech = faults.Wrap(mech, faults.Config{
			MTBF:       c.faultMTBF,
			Seed:       c.seed,
			Horizon:    int64(c.weeks+4) * simtime.Week,
			MeanRepair: c.faultRepair,
		})
	}
	return newStepper(sim.Config{Nodes: c.nodes, Policy: policy.FCFS{}, Reference: reference}, jobs, mech, tr, m)
}

// reference runs the cell on the engine's naive reference path and returns
// its canonical report.
func (c cell) reference(recs []trace.Record) (string, error) {
	d, err := c.engine(recs, true, nil, nil)
	if err != nil {
		return "", err
	}
	rep, err := d.e.Run()
	if err != nil {
		return "", fmt.Errorf("reference run %s/%s: %w", c.mech, c.mix, err)
	}
	b, err := simtest.ReportJSON(rep)
	return string(b), err
}

// generate makes a W1..W5 trace, with a span on traced runs.
func generate(tr *tracer, seed int64, nodes, weeks int, mixName string) ([]trace.Record, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("workload.generate")
	recs, err := workload.Generate(workload.Config{Seed: seed, Nodes: nodes, Weeks: weeks, Mix: mix})
	tr.end(sp)
	tr.add("workload.records", float64(len(recs)))
	return recs, err
}

// mergedTrace lays parts independent traces of partNodes nodes onto one
// machine of parts*partNodes nodes: records ordered by submission (ties by
// part, then position), renumbered from 1, projects kept distinct. The class
// shares of one trace swing widely with its seed, because a few projects
// dominate it and each project has one class (paper Fig. 4); a merged trace
// averages that out, so its cost depends little on the seed.
func mergedTrace(tr *tracer, seed int64, parts, partNodes, weeks int, mix string) ([]trace.Record, error) {
	var all []trace.Record
	for k := 0; k < parts; k++ {
		recs, err := generate(tr, inputSeed(seed, strconv.Itoa(k)), partNodes, weeks, mix)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			r.Project += k * projectStride
			all = append(all, r)
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Submit < all[b].Submit })
	for i := range all {
		all[i].ID = i + 1
	}
	return all, nil
}

// projectStride separates the project numbers of merged traces; it exceeds
// the generator's project count.
const projectStride = 1000

// inputSeed derives the seed of one generated input from the benchmark
// seed, so workloads and their parts never share a trace by accident.
func inputSeed(seed int64, parts ...string) int64 {
	return runner.DeriveSeed(append([]string{"perfbench", strconv.FormatInt(seed, 10)}, parts...)...)
}
