// Package exp contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (§IV–§V): the Theta workload
// characterization (Table I, Fig. 3–5), the FCFS/EASY baseline (Table II),
// the mechanism comparison across advance-notice mixes (Table III, Fig. 6),
// the checkpoint-frequency sweep (Fig. 7), the decision-latency check
// (Obs. 10), and the ablations DESIGN.md calls out.
//
// Every experiment is expressed as a declarative grid of runner.Spec cells —
// (mechanism × workload × policy × seed × config-ablation) coordinates —
// executed through the parallel sweep runner (internal/runner) and folded
// into averaged Cells. Results are deterministic given Options.BaseSeed and
// independent of Options.Workers (the wall-clock decision-latency fields of
// Cell excepted); each data point averages Options.Seeds independently
// generated traces, mirroring the paper's "ten randomly generated traces".
package exp

import (
	"fmt"
	"io"

	"hybridsched/internal/core"
	"hybridsched/internal/metrics"
	"hybridsched/internal/runner"
	"hybridsched/internal/simtime"
	"hybridsched/internal/workload"
)

// Options control the scale of every experiment. The zero value runs the
// paper-faithful defaults via withDefaults.
type Options struct {
	Nodes    int   // system size; default 4392
	Weeks    int   // trace length; default 4
	Seeds    int   // traces per data point; default 10
	BaseSeed int64 // first seed; default 1

	MTBF         float64 // system MTBF seconds for Daly; default 24h
	CkptFreqMult float64 // checkpoint interval multiplier; default 1.0

	Policy   string    // queue policy name; default "fcfs"
	Workers  int       // parallel sweep workers; default runtime.NumCPU()
	Progress io.Writer // optional progress log (nil = quiet)

	// Source, when non-empty, replays this source spec (see internal/source)
	// in place of every generated trace: each experiment's grid runs its
	// mechanisms over the named workload instead of the synthetic model.
	// Seed averaging collapses to one replica — the source is one fixed
	// trace — and per-variant workload knobs (notice mixes, lead ablations)
	// no longer vary the input, so figure-style experiments degrade to
	// mechanism comparisons over the given trace.
	Source string

	// Shards is the real-trace grid's shard axis (the expdriver -shards
	// flag): RealTrace runs every mechanism over the whole Source and over
	// each of its Shards deterministic hash-shards. <1 takes the default (4);
	// 1 runs the whole trace only.
	Shards int

	// Resilience-grid axes (the expdriver -mtbf/-repair flags). Empty slices
	// take the defaults: MTBFs {6 h, 24 h}, repairs {instant, 1 h}.
	FaultMTBFs   []float64 // failure MTBFs swept, seconds
	FaultRepairs []float64 // mean repair times swept, seconds (0 = instant)

	// Drains applies these maintenance windows to every resilience cell
	// (the expdriver -drain flag).
	Drains []runner.DrainSpec

	// CheckpointDir, when non-empty, makes every experiment grid resumable
	// (the expdriver -checkpoint flag): cells persist snapshots and finished
	// reports there, completed cells are skipped on rerun, and interrupted
	// cells continue from their snapshots — with results byte-identical to an
	// uninterrupted run. CheckpointEvery is the snapshot interval in
	// simulation events (<= 0 = default).
	CheckpointDir   string
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.Nodes < 1 {
		o.Nodes = 4392
	}
	if o.Weeks < 1 {
		o.Weeks = 4
	}
	if o.Seeds < 1 {
		o.Seeds = 10
	}
	if o.Source != "" {
		o.Seeds = 1 // a fixed source is one trace; replicas would be identical
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.MTBF == 0 {
		o.MTBF = 24 * float64(simtime.Hour)
	}
	if o.CkptFreqMult == 0 {
		o.CkptFreqMult = 1.0
	}
	if o.Policy == "" {
		o.Policy = "fcfs"
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// workloadConfig builds the generator config for one seed and notice mix.
func (o Options) workloadConfig(seed int64, mix workload.NoticeMix) workload.Config {
	return workload.Config{
		Seed:  seed,
		Nodes: o.Nodes,
		Weeks: o.Weeks,
		Mix:   mix,
	}
}

// Mechanisms lists the evaluated schedulers: the baseline plus the paper's
// six mechanisms, in presentation order.
func Mechanisms() []string {
	return append([]string{"baseline"}, core.Names()...)
}

// spec builds the runner cell for one (group, variant, mechanism, workload)
// coordinate with the experiment-wide defaults applied.
func (o Options) spec(group, variant, mech string, wcfg workload.Config) runner.Spec {
	return runner.Spec{
		Group:        group,
		Variant:      variant,
		Mechanism:    mech,
		Policy:       o.Policy,
		Nodes:        o.Nodes,
		Source:       o.Source,
		Workload:     wcfg,
		Core:         core.DefaultConfig(),
		MTBF:         o.MTBF,
		CkptFreqMult: o.CkptFreqMult,
	}
}

// cellSpecs expands one averaged data point into its o.Seeds replica cells.
// mutate, when non-nil, applies per-variant ablation overrides to each spec.
func (o Options) cellSpecs(group, variant, mech string, mix workload.NoticeMix, mutate func(*runner.Spec)) []runner.Spec {
	specs := make([]runner.Spec, 0, o.Seeds)
	for s := 0; s < o.Seeds; s++ {
		sp := o.spec(group, variant, mech, o.workloadConfig(o.BaseSeed+int64(s), mix))
		if mutate != nil {
			mutate(&sp)
		}
		specs = append(specs, sp)
	}
	return specs
}

// runGrid executes a grid through the parallel runner and folds the per-seed
// results into one finished Cell per (variant, mechanism), in grid order.
func (o Options) runGrid(specs []runner.Spec) ([]Cell, error) {
	sweep := runner.Run(specs, runner.Options{
		Workers:         o.Workers,
		Progress:        o.Progress,
		CheckpointDir:   o.CheckpointDir,
		CheckpointEvery: o.CheckpointEvery,
		Resume:          o.CheckpointDir != "",
	})
	if err := sweep.Err(); err != nil {
		return nil, err
	}
	type key struct{ variant, mech string }
	idx := map[key]int{}
	var cells []Cell
	for _, res := range sweep.Results {
		k := key{res.Spec.Variant, res.Spec.Mechanism}
		i, ok := idx[k]
		if !ok {
			i = len(cells)
			idx[k] = i
			cells = append(cells, Cell{Mechanism: res.Spec.Mechanism, Workload: res.Spec.Variant})
		}
		cells[i].accumulate(res.Report)
	}
	for i := range cells {
		cells[i].finish()
	}
	return cells, nil
}

// runCell averages one mechanism over o.Seeds traces with the given mix.
func (o Options) runCell(group, variant, mech string, mix workload.NoticeMix, mutate func(*runner.Spec)) (Cell, error) {
	cells, err := o.runGrid(o.cellSpecs(group, variant, mech, mix, mutate))
	if err != nil {
		return Cell{Mechanism: mech, Workload: variant}, err
	}
	return cells[0], nil
}

// cellMap indexes cells as workload/variant -> mechanism -> cell.
func cellMap(cells []Cell) map[string]map[string]Cell {
	m := map[string]map[string]Cell{}
	for _, c := range cells {
		if m[c.Workload] == nil {
			m[c.Workload] = map[string]Cell{}
		}
		m[c.Workload][c.Mechanism] = c
	}
	return m
}

// Cell is one averaged data point of Fig. 6 / Fig. 7: the metrics the paper
// plots per (mechanism, workload) pair.
type Cell struct {
	Mechanism string
	Workload  string
	Seeds     int

	TurnAllH   float64 // mean job turnaround, hours
	TurnRigidH float64
	TurnMallH  float64
	TurnODH    float64

	Util    float64 // system utilization
	Instant float64 // on-demand instant-start rate (<= 2 min delay)
	Strict  float64 // zero-delay instant-start rate

	PreemptRigid float64 // fraction of rigid jobs preempted
	PreemptMall  float64 // fraction of malleable jobs preempted

	LostFrac   float64 // node-seconds discarded by preemption
	MeanDecMs  float64 // mean mechanism decision latency
	MaxDecMs   float64 // max mechanism decision latency
	MeanDelayS float64 // mean on-demand start delay, seconds

	// Availability telemetry (resilience grid; zero on clean runs).
	Failures float64 // mean injected failures that struck a job, per run
	Misses   float64 // mean failures that hit no job, per run
	DownFrac float64 // mean out-of-service share of the window's node-seconds
}

// accumulate folds one run's report into the cell (call finish after).
func (c *Cell) accumulate(r metrics.Report) {
	c.Seeds++
	c.TurnAllH += r.All.MeanTurnaroundH
	c.TurnRigidH += r.Rigid.MeanTurnaroundH
	c.TurnMallH += r.Malleable.MeanTurnaroundH
	c.TurnODH += r.OnDemand.MeanTurnaroundH
	c.Util += r.Utilization
	c.Instant += r.InstantStartRate
	c.Strict += r.StrictInstantStartRate
	c.PreemptRigid += r.Rigid.PreemptRatio
	c.PreemptMall += r.Malleable.PreemptRatio
	c.LostFrac += r.Breakdown.Lost
	c.MeanDecMs += r.MeanDecisionMs
	c.MeanDelayS += r.MeanStartDelay
	c.Failures += float64(r.FailuresInjected)
	c.Misses += float64(r.FailureMisses)
	c.DownFrac += r.Breakdown.Unavailable
	if r.MaxDecisionMs > c.MaxDecMs {
		c.MaxDecMs = r.MaxDecisionMs
	}
}

func (c *Cell) finish() {
	if c.Seeds == 0 {
		return
	}
	n := float64(c.Seeds)
	c.TurnAllH /= n
	c.TurnRigidH /= n
	c.TurnMallH /= n
	c.TurnODH /= n
	c.Util /= n
	c.Instant /= n
	c.Strict /= n
	c.PreemptRigid /= n
	c.PreemptMall /= n
	c.LostFrac /= n
	c.MeanDecMs /= n
	c.MeanDelayS /= n
	c.Failures /= n
	c.Misses /= n
	c.DownFrac /= n
}
