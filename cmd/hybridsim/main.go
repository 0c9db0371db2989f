// Command hybridsim replays a job trace under one scheduling mechanism and
// prints the paper's evaluation metrics (§IV-D): per-class turnaround,
// on-demand instant-start rates, preemption ratios, and the node-second
// utilization ledger. With -mechs/-seeds it becomes a sweep: the grid of
// (mechanism × seed) cells runs in parallel through the sweep runner with
// deterministic, grid-ordered output.
//
// Usage:
//
//	hybridsim -seed 1 -weeks 4 -mech N\&PAA             # generate on the fly
//	hybridsim -source csv:trace.csv -mech CUA\&SPAA     # replay a trace file
//	hybridsim -source swf:jobs.swf -mech baseline       # SWF import
//	hybridsim -mechs all -seeds 3 -workers 8 -format csv   # parallel sweep
//	hybridsim -source 'swf:theta.swf|relabel:paper|scale:1.2' -mechs all
//	hybridsim -mtbf 6h -repair 1h -mechs all            # degraded capacity
//	hybridsim -drain '24h+4h:512' -mech baseline        # maintenance window
//	hybridsim -mechs all -format csv -checkpoint ckpt/  # resumable: rerun after
//	                                                    # a kill picks up where it stopped
//
// -mtbf injects node failures at the given system MTBF (each strikes one
// uniformly random node, interrupting whatever holds it); -repair keeps the
// failed node out of service for a drawn repair time (0 = instant repair);
// -drain schedules maintenance windows that absorb free capacity between
// start and start+duration. All three apply to generated and -source
// workloads alike, and fault telemetry lands in the failures /
// failure_misses / unavailable_frac output columns.
//
// -source accepts the source-spec grammar (csv:/swf:/synthetic: heads,
// relabel/scale/shift/limit/filter transforms, '+' merges); the named
// workload replaces synthetic generation and is materialized once no matter
// how many mechanisms replay it. `tracegen -validate jobs.swf` prints the
// import summary of an SWF file (jobs skipped, fields defaulted).
//
// The sweep flags shared with expdriver (-workers, -source, -policy, -seed,
// -seeds, -weeks, -nodes, -mtbf, -repair, -drain, -q, -checkpoint, -format)
// are declared and validated by internal/sweepflags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridsched"
	"hybridsched/internal/sweepflags"
)

func main() {
	fl := sweepflags.Register(flag.CommandLine, 1, false)
	var (
		mech      = flag.String("mech", "CUA&SPAA", "scheduler: baseline, the six paper mechanisms (e.g. CUA&SPAA), or a registered name")
		mechs     = flag.String("mechs", "", "sweep schedulers: comma-separated names or \"all\" (overrides -mech)")
		mixName   = flag.String("mix", "W5", "notice mix W1..W5 when generating")
		ckptMult  = flag.Float64("ckpt", 1.0, "checkpoint interval multiplier (0.5 = twice as frequent)")
		bfres     = flag.Bool("backfill-reserved", false, "backfill jobs onto reserved nodes (evicted on arrival)")
		noReturn  = flag.Bool("no-directed-return", false, "drop returned lease nodes into the common pool")
		ckptEvery = flag.Int("checkpoint-every", 0, "simulation events between cell snapshots under -checkpoint (0 = default)")
	)
	flag.Parse()
	if err := fl.Check(); err != nil {
		sweepflags.FatalUsage(err)
	}

	mechList := []string{*mech}
	if *mechs == "all" {
		mechList = hybridsched.Mechanisms()
	} else if *mechs != "" {
		mechList = strings.Split(*mechs, ",")
		for i := range mechList {
			mechList[i] = strings.TrimSpace(mechList[i])
		}
	}
	// Validate scheduler names against the registry up front: a bad name
	// must not cost a full trace generation before erroring.
	for _, m := range mechList {
		if err := sweepflags.CheckName("scheduler", m, hybridsched.SchedulerNames()); err != nil {
			sweepflags.FatalUsage(err)
		}
	}
	mix, err := hybridsched.MixByName(*mixName)
	if err != nil {
		sweepflags.FatalUsage(fmt.Errorf("-mix: %w", err))
	}

	// A source spec is one fixed workload: one cell per mechanism, all
	// sharing a single materialization. Otherwise each mechanism replays
	// -seeds generated traces.
	var specs []hybridsched.SweepSpec
	for _, m := range mechList {
		sp := hybridsched.SweepSpec{
			Label:  m,
			Source: fl.Source,
			Sim: hybridsched.SimulationConfig{
				Nodes:              fl.Nodes,
				Mechanism:          m,
				Policy:             fl.Policy,
				CheckpointFreqMult: *ckptMult,
				BackfillReserved:   *bfres,
				NoDirectedReturn:   *noReturn,
				MTBF:               fl.MTBF(), // checkpoint for the failure rate actually injected
			},
			FaultMTBF:       fl.MTBF(),
			FaultMeanRepair: fl.Repair(),
			Drains:          fl.Drains,
		}
		if fl.Source != "" {
			specs = append(specs, sp)
			continue
		}
		for s := 0; s < fl.Seeds; s++ {
			sp.Workload = hybridsched.WorkloadConfig{
				Seed: fl.Seed + int64(s), Weeks: fl.Weeks, Nodes: fl.Nodes, Mix: mix,
			}
			specs = append(specs, sp)
		}
	}
	opt := hybridsched.SweepOptions{
		Workers:         fl.Workers,
		CheckpointDir:   fl.Checkpoint,
		CheckpointEvery: *ckptEvery,
		Resume:          fl.Checkpoint != "",
	}
	if !fl.Quiet && len(specs) > 1 {
		opt.Progress = os.Stderr
	}
	report, err := hybridsched.RunSweep(specs, opt)
	if err != nil {
		sweepflags.Fatal(err)
	}
	switch fl.Format {
	case "json":
		err = report.WriteJSON(os.Stdout)
	case "csv":
		err = report.WriteCSV(os.Stdout)
	case "text":
		for i, res := range report.Results {
			if i > 0 {
				fmt.Println()
			}
			printReport(res.Spec.Label, fl.Policy, res.Report)
		}
	}
	if err != nil {
		sweepflags.Fatal(err)
	}
}

// printReport writes the single-run metrics block.
func printReport(mech, pol string, rep hybridsched.Report) {
	fmt.Printf("mechanism           %s (policy %s)\n", mech, pol)
	fmt.Printf("jobs                %d (rigid %d, on-demand %d, malleable %d)\n",
		rep.Jobs, rep.Rigid.Count, rep.OnDemand.Count, rep.Malleable.Count)
	fmt.Printf("makespan            %s\n", hybridsched.FormatDuration(rep.Makespan))
	fmt.Printf("avg turnaround      %.1f h (rigid %.1f, on-demand %.1f, malleable %.1f)\n",
		rep.All.MeanTurnaroundH, rep.Rigid.MeanTurnaroundH,
		rep.OnDemand.MeanTurnaroundH, rep.Malleable.MeanTurnaroundH)
	fmt.Printf("system utilization  %.2f%%\n", 100*rep.Utilization)
	fmt.Printf("  useful %.2f%%  setup %.2f%%  ckpt %.2f%%  lost %.2f%%  reserved-idle %.2f%%  idle %.2f%%\n",
		100*rep.Breakdown.Useful, 100*rep.Breakdown.Setup, 100*rep.Breakdown.Ckpt,
		100*rep.Breakdown.Lost, 100*rep.Breakdown.ReservedIdle, 100*rep.Breakdown.Idle)
	fmt.Printf("instant start       %.2f%% (strict zero-delay %.2f%%, mean delay %.0fs)\n",
		100*rep.InstantStartRate, 100*rep.StrictInstantStartRate, rep.MeanStartDelay)
	fmt.Printf("preemption ratio    rigid %.2f%%  malleable %.2f%%\n",
		100*rep.Rigid.PreemptRatio, 100*rep.Malleable.PreemptRatio)
	if rep.FailuresInjected+rep.FailureMisses > 0 || rep.DownNodeSeconds > 0 {
		fmt.Printf("availability        %d failures struck, %d missed; unavailable %.2f%% (%s node-downtime)\n",
			rep.FailuresInjected, rep.FailureMisses,
			100*rep.Breakdown.Unavailable, hybridsched.FormatDuration(rep.DownNodeSeconds))
	}
	if rep.DecisionCount > 0 {
		fmt.Printf("decision latency    mean %.4f ms, max %.4f ms over %d decisions\n",
			rep.MeanDecisionMs, rep.MaxDecisionMs, rep.DecisionCount)
	}
}
