package main

import (
	"fmt"
	"strconv"
	"time"

	"hybridsched/internal/runner"
	"hybridsched/internal/simtest"
	"hybridsched/internal/trace"
)

// paper-sweep is the Figure 6 grid (seven schedulers × W1..W5) plus W5 with
// faults (6 h MTBF, 2 h mean repair) for every scheduler, at paper width
// over four weeks, for paperSeeds workload seeds, through runner.Run with
// two workers and the trace cache on.
const (
	paperNodes   = 4392
	paperWeeks   = 4
	paperSeeds   = 8
	paperWorkers = 2
)

type paperInst struct {
	seed   int64
	nodes  int
	cells  []cell
	specs  []runner.Spec
	traces map[string][]trace.Record // by traceKey
	refs   paperRefs
}

// paperRefs is what the checks compare against, per cell.
type paperRefs struct {
	Reports []string // canonical reports of the reference path
	Events  []int    // events the optimized path dispatches
}

func traceKey(seed int64, mix string) string { return strconv.FormatInt(seed, 10) + "/" + mix }

func setupPaperSweep(seed int64, tr *tracer) (instance, error) {
	return newPaperSweep(seed, tr, paperNodes, paperWeeks, paperSeeds)
}

func newPaperSweep(seed int64, tr *tracer, nodes, weeks, seeds int) (*paperInst, error) {
	p := &paperInst{seed: seed, nodes: nodes, traces: map[string][]trace.Record{}}
	for k := 0; k < seeds; k++ {
		ws := inputSeed(seed, "paper-sweep", strconv.Itoa(k))
		for _, mix := range simtest.Mixes() {
			recs, err := generate(tr, ws, nodes, weeks, mix)
			if err != nil {
				return nil, err
			}
			p.traces[traceKey(ws, mix)] = recs
			for _, mech := range simtest.Mechanisms() {
				p.cells = append(p.cells, cell{mech: mech, mix: mix, seed: ws, nodes: nodes, weeks: weeks})
			}
		}
		for _, mech := range simtest.Mechanisms() {
			p.cells = append(p.cells, cell{mech: mech, mix: "W5", seed: ws, nodes: nodes, weeks: weeks,
				faultMTBF: 6 * 3600, faultRepair: 2 * 3600})
		}
	}
	for _, c := range p.cells {
		s, err := c.spec()
		if err != nil {
			return nil, err
		}
		p.specs = append(p.specs, s)
	}
	return p, nil
}

func (p *paperInst) recs(c cell) []trace.Record { return p.traces[traceKey(c.seed, c.mix)] }

func (p *paperInst) prepare() (err error) {
	p.refs, err = cached(fmt.Sprintf("paper-sweep-%d-%d", p.nodes, len(p.cells)), p.seed, func() (paperRefs, error) {
		var r paperRefs
		for _, c := range p.cells {
			ref, err := c.reference(p.recs(c))
			if err != nil {
				return r, err
			}
			d, err := c.engine(p.recs(c), false, nil, nil)
			if err != nil {
				return r, err
			}
			if err := d.drain(); err != nil {
				return r, err
			}
			r.Reports = append(r.Reports, ref)
			r.Events = append(r.Events, d.e.DispatchedCount())
		}
		return r, nil
	})
	return err
}

func (p *paperInst) close() {}

func (p *paperInst) iterate(m *meter, tr *tracer) (iteration, error) {
	if tr != nil {
		return p.iterateTraced(m, tr)
	}
	m.begin()
	sweep := runner.Run(p.specs, runner.Options{Workers: paperWorkers})
	m.end()
	it := iteration{live: sweep}
	for i, r := range sweep.Results {
		it.events += p.refs.Events[i]
		it.latencyMS = append(it.latencyMS, r.ElapsedMS)
		it.attempted++
		if !p.matches(i, r) {
			it.failed++
		}
	}
	it.counts = map[string]int64{"runner.cells": int64(len(sweep.Results)), "eventq.pops": int64(it.events)}
	return it, nil
}

// matches reports whether cell i succeeded with the reference report.
func (p *paperInst) matches(i int, r runner.Result) bool {
	if r.Failed() {
		warn(fmt.Errorf("paper-sweep: cell %s: %s", r.Spec.Key(), r.Err))
		return false
	}
	got, err := simtest.ReportJSON(r.Report)
	if err != nil || string(got) != p.refs.Reports[i] {
		mismatch("paper-sweep-"+r.Spec.Key(), got, []byte(p.refs.Reports[i]))
		return false
	}
	return true
}

// iterateTraced runs every cell serially through instrumented engines (the
// timed region), then one untimed runner sweep for the runner's own
// per-cell timings.
func (p *paperInst) iterateTraced(m *meter, tr *tracer) (iteration, error) {
	it := iteration{}
	m.begin()
	for i, c := range p.cells {
		d, err := c.engine(p.recs(c), false, tr, m)
		if err != nil {
			return it, err
		}
		if err := d.drain(); err != nil {
			return it, err
		}
		r := runner.Result{Spec: p.specs[i], Report: d.e.Report()}
		m.pause()
		it.attempted++
		if !p.matches(i, r) {
			it.failed++
		}
		if err := d.finish(); err != nil {
			return it, err
		}
		m.resume()
		it.events += d.e.DispatchedCount()
	}
	m.pause()
	t0 := time.Now()
	sweep := runner.Run(p.specs, runner.Options{Workers: paperWorkers})
	wall := time.Since(t0).Seconds()
	for i, r := range sweep.Results {
		it.attempted++
		if !p.matches(i, r) {
			it.failed++
		}
		tr.sample("runner.cell_ms", r.ElapsedMS)
	}
	tr.add("runner.cells", float64(len(sweep.Results)))
	tr.add("runner.wall_s", wall)
	tr.add("runner.workers", float64(sweep.Workers))
	m.resume()
	m.end()
	it.counts = map[string]int64{"runner.cells": int64(len(sweep.Results))}
	return it, nil
}

// plain is the traced iteration's work without instrumentation, the base of
// trace.overhead_frac.
func (p *paperInst) plain(m *meter) error {
	m.begin()
	for _, c := range p.cells {
		d, err := c.engine(p.recs(c), false, nil, nil)
		if err != nil {
			return err
		}
		if err := d.drain(); err != nil {
			return err
		}
		d.e.Report()
	}
	m.end()
	return nil
}
