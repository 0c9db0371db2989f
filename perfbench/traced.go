package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// plainer is implemented by workloads whose traced iteration does other
// work than the untraced one; plain times the traced iteration's work
// without instrumentation, the base of trace.overhead_frac.
type plainer interface {
	plain(m *meter) error
}

// measureTraced alternates untraced and traced iterations until the budget
// is spent. The per-layer metrics come from the first traced iteration, so
// its counts are per iteration; trace.overhead_frac compares the medians.
// The set-up spans and the first traced iteration's spans are written to
// outDir.
func measureTraced(w workloadDef, inst instance, setupTr *tracer, budget float64, res *result, guard *countGuard) error {
	var (
		plainS, tracedS []float64
		first           *tracer
		firstGC         gcSample
	)
	start := time.Now()
	for n := 1; n == 1 || time.Since(start).Seconds() < budget; n++ {
		var m0 meter
		if p, ok := inst.(plainer); ok {
			if err := p.plain(&m0); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		} else {
			it, err := inst.iterate(&m0, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if it.after != nil {
				it.after()
			}
			res.Attempted += it.attempted
			res.Failed += it.failed
		}
		plainS = append(plainS, m0.seconds)

		tr := newTracer()
		tr.run = int32(n)
		var m1 meter
		it, err := inst.iterate(&m1, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if it.after != nil {
			it.after()
		}
		res.Attempted += it.attempted
		res.Failed += it.failed
		tracedS = append(tracedS, m1.seconds)
		counts := tracedCounts(tr)
		for k, v := range it.counts {
			counts[k] = v
		}
		if err := guard.check(counts); err != nil {
			return err
		}
		if first == nil {
			first, firstGC = tr, m1.gc
		}
	}
	layerMetrics(first, setupTr, firstGC, res)
	res.Metrics["trace.overhead_frac"] = metric{Value: (median(tracedS) - median(plainS)) / median(plainS), Unit: "fraction"}
	setupTr.merge(first)
	path := filepath.Join(outDir, "spans", w.name+".csv")
	if err := setupTr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d traced iterations; spans in %s\n", w.name, len(tracedS), path)
	return nil
}

// coreCallbacks are the mechanism callbacks the timing decorator spans.
var coreCallbacks = []string{"notice", "od_arrival", "job_completed", "warning_expired", "timer"}

// serverRoutes are the schedd routes the serve workload calls.
var serverRoutes = []string{"create", "jobs", "advance", "checkpoint", "report"}

// tracedCounts are the host-independent counts of a traced iteration.
func tracedCounts(tr *tracer) map[string]int64 {
	c := map[string]int64{
		"sim.steps":    int64(tr.stats(prefixed("sim.step.")).n),
		"eventq.pops":  int64(tr.gauges["eventq.pops"]),
		"policy.plans": int64(tr.stats(named("policy.plan")).n),
		"cluster.ops":  int64(tr.stats(clusterOp).n),
		"runner.cells": int64(tr.gauges["runner.cells"]),
	}
	for _, cb := range coreCallbacks {
		c["core."+cb+".calls"] = int64(tr.stats(named("core." + cb)).n)
	}
	return c
}

func clusterOp(name string) bool {
	return strings.HasPrefix(name, "cluster.") && name != "cluster.replay"
}

// layerMetrics derives every per-layer metric from one traced iteration and
// the set-up spans. A layer the workload does not run reports zeros.
func layerMetrics(tr, setupTr *tracer, gc gcSample, res *result) {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) * 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	steps := tr.stats(prefixed("sim.step."))
	put("sim.steps", "count", float64(steps.n))
	put("sim.step_busy_s", "s", float64(steps.busyNS)/1e9)
	put("sim.step_self_s", "s", float64(steps.selfNS)/1e9)
	put("sim.step_p50_us", "us", us(steps.dursSec, 0.50))
	put("sim.step_p99_us", "us", us(steps.dursSec, 0.99))
	submits := tr.stats(named("sim.submit"))
	put("sim.submits", "count", float64(submits.n))
	put("sim.submit_busy_s", "s", float64(submits.busyNS)/1e9)
	put("sim.queue_depth_mean", "jobs", ratio(tr.gauges["sim.depth_sum"], float64(steps.n)))
	put("sim.queue_depth_max", "jobs", tr.gauges["sim.depth.max"])
	for _, k := range stepKinds {
		st := tr.stats(named("sim.step." + k))
		put("sim.kind."+k+".steps", "count", float64(st.n))
		put("sim.kind."+k+".busy_s", "s", float64(st.busyNS)/1e9)
	}
	put("eventq.pops", "count", tr.gauges["eventq.pops"])

	var decisions []float64
	for _, cb := range coreCallbacks {
		st := tr.stats(named("core." + cb))
		put("core."+cb+".calls", "count", float64(st.n))
		put("core."+cb+".busy_s", "s", float64(st.busyNS)/1e9)
	}
	decisions = tr.samples["core.decision_us"]
	put("core.decisions", "count", float64(len(decisions)))
	put("core.decision_p50_us", "us", quantile(decisions, 0.50))
	put("core.decision_p99_us", "us", quantile(decisions, 0.99))

	ops := tr.stats(clusterOp)
	put("cluster.ops", "count", float64(ops.n))
	put("cluster.busy_s", "s", float64(ops.busyNS)/1e9)
	alloc := tr.stats(named("cluster.alloc"))
	put("cluster.alloc_p50_us", "us", us(alloc.dursSec, 0.50))
	put("cluster.alloc_p99_us", "us", us(alloc.dursSec, 0.99))
	release := tr.stats(named("cluster.release"))
	put("cluster.release_p50_us", "us", us(release.dursSec, 0.50))
	put("cluster.release_p99_us", "us", us(release.dursSec, 0.99))

	plans := tr.stats(named("policy.plan"))
	put("policy.plans", "count", float64(plans.n))
	put("policy.plan_p50_us", "us", us(plans.dursSec, 0.50))
	put("policy.plan_p99_us", "us", us(plans.dursSec, 0.99))
	put("policy.plan_us_per_queued_job", "us", ratio(float64(plans.busyNS)/1e3, tr.gauges["policy.queued"]))
	put("policy.starts_per_plan", "count", ratio(tr.gauges["policy.starts"], float64(plans.n)))

	gen := setupTr.stats(named("workload.generate"))
	put("workload.generate_s", "s", float64(gen.busyNS)/1e9/setupRepeats)
	put("workload.records", "count", setupTr.gauges["workload.records"]/setupRepeats)

	cellMS := tr.samples["runner.cell_ms"]
	busy := 0.0
	for _, ms := range cellMS {
		busy += ms / 1e3
	}
	put("runner.cells", "count", tr.gauges["runner.cells"])
	put("runner.cell_busy_s", "s", busy)
	put("runner.cell_p50_ms", "ms", quantile(cellMS, 0.50))
	put("runner.cell_p90_ms", "ms", quantile(cellMS, 0.90))
	put("runner.pool_busy_frac", "fraction", ratio(busy, tr.gauges["runner.wall_s"]*tr.gauges["runner.workers"]))

	enc := tr.stats(named("snapshot.encode"))
	dec := tr.stats(named("snapshot.decode"))
	put("snapshot.bytes", "bytes", ratio(tr.gauges["snapshot.bytes"], float64(enc.n)))
	put("snapshot.encode_ms", "ms", ratio(float64(enc.busyNS)/1e6, float64(enc.n)))
	put("snapshot.decode_ms", "ms", ratio(float64(dec.busyNS)/1e6, float64(dec.n)))
	put("snapshot.checkpoint_bytes", "bytes", median(tr.samples["snapshot.checkpoint_bytes"]))

	for _, route := range serverRoutes {
		st := tr.stats(named("server." + route))
		put("server."+route+".count", "count", float64(st.n))
		put("server."+route+".p50_ms", "ms", quantile(st.dursSec, 0.50)*1e3)
		put("server."+route+".p99_ms", "ms", quantile(st.dursSec, 0.99)*1e3)
	}
	put("server.non2xx", "count", tr.gauges["server.non2xx"])

	put("runtime.gc_cycles", "count", gc.cycles)
	put("runtime.gc_cpu_frac", "fraction", ratio(gc.gcCPU, gc.totalCPU))
}

// warn reports a failed check on standard error.
func warn(err error) { fmt.Fprintln(os.Stderr, "perfbench:", err) }

// mismatch reports an output that differs from its oracle and keeps both
// under outDir for inspection.
func mismatch(what string, got, want []byte) {
	base := filepath.Join(outDir, "mismatch", strings.NewReplacer("/", "_", "&", "_").Replace(what))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err == nil {
		os.WriteFile(base+".got.json", got, 0o644)
		os.WriteFile(base+".want.json", want, 0o644)
	}
	warn(fmt.Errorf("%s: output differs from its oracle; both kept as %s.{got,want}.json", what, base))
}
