package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"hybridsched/internal/cluster"
	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
	"hybridsched/internal/sim"
	"hybridsched/internal/snapshot"
)

// timedMech decorates a mechanism with a span around each of its engine
// callbacks. Spans nest under the step that triggered them. With a nil
// tracer it only forwards, and it forwards the snapshot codec too, so
// Engine.Snapshot works on a wrapped engine.
type timedMech struct {
	inner sim.Mechanism
	tr    *tracer
}

var _ sim.SnapshotMechanism = timedMech{}

func (m timedMech) Name() string             { return m.inner.Name() }
func (m timedMech) Attach(e *sim.Engine)     { m.inner.Attach(e) }
func (m timedMech) QueueOnDemandFirst() bool { return m.inner.QueueOnDemandFirst() }
func (m timedMech) FlexibleMalleable() bool  { return m.inner.FlexibleMalleable() }
func (m timedMech) OnODStarted(j *job.Job)   { m.inner.OnODStarted(j) }

func (m timedMech) OnNotice(j *job.Job) {
	sp := m.tr.begin("core.notice")
	m.inner.OnNotice(j)
	m.tr.end(sp)
}

func (m timedMech) OnODArrival(j *job.Job) bool {
	sp := m.tr.begin("core.od_arrival")
	handled := m.inner.OnODArrival(j)
	m.tr.end(sp)
	return handled
}

func (m timedMech) OnJobCompleted(j *job.Job, freed *nodeset.Set) {
	sp := m.tr.begin("core.job_completed")
	m.inner.OnJobCompleted(j, freed)
	m.tr.end(sp)
}

func (m timedMech) OnWarningExpired(j *job.Job, claim int, freed *nodeset.Set) {
	sp := m.tr.begin("core.warning_expired")
	m.inner.OnWarningExpired(j, claim, freed)
	m.tr.end(sp)
}

func (m timedMech) OnTimer(payload any) {
	sp := m.tr.begin("core.timer")
	m.inner.OnTimer(payload)
	m.tr.end(sp)
}

func (m timedMech) snap() (sim.SnapshotMechanism, error) {
	sm, ok := m.inner.(sim.SnapshotMechanism)
	if !ok {
		return nil, fmt.Errorf("mechanism %q does not support snapshots", m.inner.Name())
	}
	return sm, nil
}

func (m timedMech) EncodeSnapshotState(e *snapshot.Enc) error {
	sm, err := m.snap()
	if err != nil {
		return err
	}
	return sm.EncodeSnapshotState(e)
}

func (m timedMech) DecodeSnapshotState(d *snapshot.Dec, rc *sim.RestoreContext) error {
	sm, err := m.snap()
	if err != nil {
		return err
	}
	return sm.DecodeSnapshotState(d, rc)
}

func (m timedMech) EncodeTimerPayload(e *snapshot.Enc, payload any) error {
	sm, err := m.snap()
	if err != nil {
		return err
	}
	return sm.EncodeTimerPayload(e, payload)
}

func (m timedMech) DecodeTimerPayload(d *snapshot.Dec) (any, error) {
	sm, err := m.snap()
	if err != nil {
		return nil, err
	}
	return sm.DecodeTimerPayload(d)
}

// recStopwatch is a wall-clock simtime.Stopwatch that also records every
// measurement: the engine and mechanisms time their scheduling decisions
// through it.
type recStopwatch struct{ tr *tracer }

func (s recStopwatch) Start() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		s.tr.sample("core.decision_us", float64(d)/1e3)
		return d
	}
}

// Step kinds: each step is classified by the first lifecycle event the
// engine's sink saw during it.
var stepKinds = []string{"arrival", "notice", "end", "start", "reshape", "fault", "quiet"}

func stepKind(t sim.EventType) string {
	switch t {
	case sim.EventArrival:
		return "arrival"
	case sim.EventNotice:
		return "notice"
	case sim.EventEnd:
		return "end"
	case sim.EventStart:
		return "start"
	case sim.EventWarning, sim.EventPreempt, sim.EventShrink, sim.EventExpand, sim.EventCheckpoint:
		return "reshape"
	}
	return "fault"
}

// planEvery is the step interval at which the traced run replays the EASY
// planner on a copy of the engine's queue and running set.
const planEvery = 64

// stepper steps one engine. Untraced (nil tracer) it only steps; traced it
// puts a span around each Step and Submit, classifies steps, samples queue
// depth, replays the planner every planEvery steps, and records the
// allocation stream for the cluster replay.
type stepper struct {
	e        *sim.Engine
	tr       *tracer
	m        *meter
	flexible bool // the mechanism sizes malleable jobs flexibly
	kind     string
	steps    int
	// stream is the start/end/preempt/shrink/expand sequence.
	stream  []sim.Event
	planner policy.Planner
	relVer  uint64
}

// timed wraps mech in the timing decorator on traced runs.
func timed(mech sim.Mechanism, tr *tracer) sim.Mechanism {
	if tr == nil {
		return mech
	}
	return timedMech{inner: mech, tr: tr}
}

// newStepper builds an engine and its stepper. On traced runs mech should
// already be wrapped by timed; the engine gets the recording stopwatch and
// the stepper's event sink.
func newStepper(cfg sim.Config, jobs []*job.Job, mech sim.Mechanism, tr *tracer, m *meter) (*stepper, error) {
	if tr != nil {
		cfg.Stopwatch = recStopwatch{tr: tr}
	}
	e, err := sim.New(cfg, jobs, mech)
	if err != nil {
		return nil, err
	}
	d := &stepper{e: e, tr: tr, m: m, flexible: mech.FlexibleMalleable()}
	if tr != nil {
		e.SetEventSink(d.sink)
	}
	return d, nil
}

func (d *stepper) sink(ev sim.Event) {
	if d.kind == "quiet" {
		d.kind = stepKind(ev.Type)
	}
	switch ev.Type {
	case sim.EventStart, sim.EventEnd, sim.EventPreempt, sim.EventShrink, sim.EventExpand:
		d.stream = append(d.stream, ev)
	}
}

// step processes one event.
func (d *stepper) step() (bool, error) {
	if d.tr == nil {
		return d.e.Step()
	}
	d.kind = "quiet"
	sp := d.tr.begin("sim.step")
	more, err := d.e.Step()
	d.tr.endAs(sp, "sim.step."+d.kind)
	d.steps++
	depth := float64(d.e.QueueDepth())
	d.tr.add("sim.depth_sum", depth)
	d.tr.max("sim.depth.max", depth)
	if d.steps%planEvery == 0 && depth > 0 {
		d.m.pause()
		d.replanOnce()
		d.m.resume()
	}
	return more, err
}

// submit injects one job.
func (d *stepper) submit(j *job.Job) error {
	if d.tr == nil {
		return d.e.Submit(j)
	}
	sp := d.tr.begin("sim.submit")
	err := d.e.Submit(j)
	d.tr.end(sp)
	return err
}

// drain steps until the engine has nothing left to do.
func (d *stepper) drain() error {
	for {
		more, err := d.step()
		if err != nil || !more {
			return err
		}
	}
}

// runUntil steps every event due at or before t.
func (d *stepper) runUntil(t int64) error {
	for {
		next, ok := d.e.PeekTime()
		if !ok || next > t {
			return nil
		}
		if _, err := d.step(); err != nil {
			return err
		}
	}
}

// finish records the engine's event count and replays its allocation
// stream into a fresh cluster. It runs after the timed region.
func (d *stepper) finish() error {
	if d.tr == nil {
		return nil
	}
	d.tr.add("eventq.pops", float64(d.e.DispatchedCount()))
	return replayCluster(d.tr, d.e.Nodes(), d.stream)
}

// replanOnce runs the EASY planner on a copy of the engine's waiting queue
// and a release list rebuilt from its running jobs (a job in its preemption
// warning is keyed by its estimated end, not the warning's expiry). The
// planner only reads jobs, so the run is unaffected.
func (d *stepper) replanOnce() {
	e := d.e
	queue := e.QueuedJobs()
	var running []policy.Running
	for _, j := range e.RunningAll() {
		end := j.EstimatedEnd()
		if j.Class == job.Malleable {
			end = j.MalleableEstimatedEndAsOf()
		}
		running = append(running, policy.Running{EstEnd: end, Nodes: j.CurSize, ID: j.ID})
	}
	sort.Slice(running, func(a, b int) bool { return policy.RelLess(running[a], running[b]) })
	cl := e.Cluster()
	own := func(j *job.Job) int { return cl.ReservedCount(j.ID) }
	d.relVer++
	sp := d.tr.begin("policy.plan")
	starts := d.planner.PlanEASYSorted(e.Now(), queue, running, d.relVer, cl.FreeCount(), 0, own, d.flexible)
	d.tr.end(sp)
	d.tr.add("policy.queued", float64(len(queue)))
	d.tr.add("policy.starts", float64(len(starts)))
}

// replayCluster applies an engine's allocation stream to a fresh cluster,
// with a span around each call.
func replayCluster(tr *tracer, nodes int, stream []sim.Event) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster replay: %v", p)
		}
	}()
	c := cluster.New(nodes)
	root := tr.begin("cluster.replay")
	defer tr.end(root)
	for _, ev := range stream {
		var sp int32
		switch ev.Type {
		case sim.EventStart:
			sp = tr.begin("cluster.alloc")
			c.AllocFree(ev.Job, ev.Nodes)
		case sim.EventExpand:
			sp = tr.begin("cluster.alloc")
			c.Grow(ev.Job, ev.Nodes)
		case sim.EventEnd, sim.EventPreempt:
			sp = tr.begin("cluster.release")
			c.Release(ev.Job)
		case sim.EventShrink:
			sp = tr.begin("cluster.release")
			c.ReleasePartial(ev.Job, ev.Nodes)
		}
		tr.end(sp)
	}
	return nil
}

// gcSample is the runtime's cumulative GC work.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{cycles: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (a gcSample) sub(b gcSample) gcSample {
	return gcSample{cycles: a.cycles - b.cycles, gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU}
}
