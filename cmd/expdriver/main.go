// Command expdriver regenerates the paper's tables and figures
// (Table I-III, Figures 3-7, the Observation-10 latency check, and the
// DESIGN.md ablations). Every simulation-backed experiment runs as a
// declarative grid through the parallel sweep runner, so adding -workers
// uses every core while producing output identical to a serial run.
//
// Usage:
//
//	expdriver                            # everything at paper scale (10 seeds)
//	expdriver -exp fig6 -seeds 3         # one experiment, reduced averaging
//	expdriver -exp fig6,fig7 -workers 8  # a selection, 8-way parallel
//	expdriver -format csv -o cells.csv   # averaged cells as CSV
//	expdriver -format json -o all.json   # result structs as JSON
//	expdriver -exp resilience -mtbf 6h,24h -repair 0,1h   # degraded capacity
//	expdriver -exp resilience -drain 24h+4h:512           # + maintenance window
//	expdriver -exp fig6 -checkpoint ckpt/                 # resumable: rerun after a kill
//	                                                      # picks up where it stopped
//
// The sweep flags shared with hybridsim (-workers, -source, -policy, -seed,
// -seeds, -weeks, -nodes, -mtbf, -repair, -drain, -q, -checkpoint, -format)
// are declared and validated by internal/sweepflags; every flag is checked
// before -o is opened, so a typo never truncates an existing results file.
//
// The csv form contains only deterministic metrics and is byte-identical for
// any -workers value; json serializes the full result structs, whose decision
// -latency fields are wall clock and so vary between runs and machines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hybridsched/internal/exp"
	"hybridsched/internal/sweepflags"
)

func main() {
	fl := sweepflags.Register(flag.CommandLine, 10, true)
	var (
		which = flag.String("exp", "all",
			"comma-separated experiments: all, tablei, tableii, tableiii, fig3, fig4, fig5, fig6, fig7, latency, ablations, resilience, realtrace (needs -source; not part of all)")
		out    = flag.String("o", "", "output file (default stdout)")
		shards = flag.Int("shards", 0, "realtrace: hash-shard count for the shard axis (0 = default 4, 1 = whole trace only)")
	)
	flag.Parse()
	if err := fl.Check(); err != nil {
		sweepflags.FatalUsage(err)
	}
	known := []string{"all", "tablei", "fig3", "fig4", "fig5",
		"tableii", "tableiii", "fig6", "fig7", "latency", "ablations", "resilience", "realtrace"}
	selected := map[string]bool{}
	for _, name := range strings.Split(*which, ",") {
		name = strings.TrimSpace(name)
		if err := sweepflags.CheckName("experiment", name, known); err != nil {
			sweepflags.FatalUsage(err)
		}
		selected[name] = true
	}
	if selected["realtrace"] && fl.Source == "" {
		sweepflags.FatalUsage(errors.New("-exp realtrace needs -source, e.g. 'borg:trace.csv.gz|relabel:paper'"))
	}

	// Every flag is valid: only now may -o replace an existing file.
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			sweepflags.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	opt := exp.Options{
		Nodes:         fl.Nodes,
		Weeks:         fl.Weeks,
		Seeds:         fl.Seeds,
		BaseSeed:      fl.Seed,
		Policy:        fl.Policy,
		Workers:       fl.Workers,
		Source:        fl.Source,
		FaultMTBFs:    fl.MTBFs,
		FaultRepairs:  fl.Repairs,
		Drains:        fl.Drains,
		Shards:        *shards,
		CheckpointDir: fl.Checkpoint,
	}
	if !fl.Quiet {
		opt.Progress = os.Stderr
	}

	d := &driver{w: w, format: fl.Format, selected: selected}
	start := time.Now()

	d.run("tablei", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.TableI(opt)
		return r, nil, err
	})
	d.run("fig3", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure3(opt)
		return r, nil, err
	})
	d.run("fig4", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure4(opt)
		return r, nil, err
	})
	d.run("fig5", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure5(opt)
		return r, nil, err
	})
	d.run("tableii", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.TableII(opt)
		return r, []exp.CellGroup{{Experiment: "tableii", Cells: r.Flatten()}}, err
	})
	d.run("tableiii", func() (renderer, []exp.CellGroup, error) {
		return exp.TableIII(), nil, nil
	})
	d.run("fig6", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure6(opt)
		return r, []exp.CellGroup{{Experiment: "fig6", Cells: r.Flatten()}}, err
	})
	d.run("fig7", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure7(opt)
		return r, []exp.CellGroup{{Experiment: "fig7", Cells: r.Flatten()}}, err
	})
	d.run("latency", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.DecisionLatency(opt)
		return r, []exp.CellGroup{{Experiment: "latency", Cells: r.Flatten()}}, err
	})
	d.run("resilience", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Resilience(opt)
		return r, []exp.CellGroup{{Experiment: "resilience", Cells: r.Flatten()}}, err
	})
	// realtrace needs -source, so it never rides along with "all".
	if d.selected["realtrace"] {
		d.run("realtrace", func() (renderer, []exp.CellGroup, error) {
			r, err := exp.RealTrace(opt)
			return r, []exp.CellGroup{{Experiment: "realtrace", Cells: r.Flatten()}}, err
		})
	}
	d.run("ablations", func() (renderer, []exp.CellGroup, error) {
		ablations := []struct {
			name string
			fn   func(exp.Options) (exp.AblationResult, error)
		}{
			{"ablation-bfres", exp.AblationBackfillReserved},
			{"ablation-return", exp.AblationDirectedReturn},
			{"ablation-minsize", exp.AblationMinSizeFraction},
			{"ablation-lead", exp.AblationNoticeLead},
			{"ablation-policy", exp.AblationQueuePolicy},
		}
		var rs multiRender
		var groups []exp.CellGroup
		for _, a := range ablations {
			r, err := a.fn(opt)
			if err != nil {
				return nil, nil, err
			}
			rs = append(rs, r)
			groups = append(groups, exp.CellGroup{Experiment: a.name, Cells: r.Flatten()})
		}
		return rs, groups, nil
	})

	if err := d.finish(); err != nil {
		sweepflags.Fatal(err)
	}
	if !fl.Quiet {
		fmt.Fprintf(os.Stderr, "expdriver: total %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// renderer is the common face of every experiment result.
type renderer interface{ Render(io.Writer) }

// multiRender renders several results in sequence (the ablation bundle).
type multiRender []renderer

func (m multiRender) Render(w io.Writer) {
	for i, r := range m {
		if i > 0 {
			fmt.Fprintln(w)
		}
		r.Render(w)
	}
}

// driver runs selected experiments and accumulates output in the requested
// format: text renders immediately; json and csv collect and emit at finish.
type driver struct {
	w        io.Writer
	format   string
	selected map[string]bool

	jsonOut []jsonEntry
	csvOut  []exp.CellGroup
}

type jsonEntry struct {
	Experiment string `json:"experiment"`
	Result     any    `json:"result"`
}

// cellLess names the experiments with no averaged-cell form; csv mode skips
// them before paying for their (potentially paper-scale) runs.
var cellLess = map[string]bool{
	"tablei": true, "fig3": true, "fig4": true, "fig5": true, "tableiii": true,
}

func (d *driver) run(name string, fn func() (renderer, []exp.CellGroup, error)) {
	if !d.selected["all"] && !d.selected[name] {
		return
	}
	if d.format == "csv" && cellLess[name] {
		fmt.Fprintf(os.Stderr, "expdriver: %s has no cell form, skipped in csv output\n", name)
		return
	}
	r, groups, err := fn()
	if err != nil {
		sweepflags.Fatal(fmt.Errorf("%s: %w", name, err))
	}
	switch d.format {
	case "text":
		fmt.Fprintln(d.w)
		r.Render(d.w)
	case "json":
		if m, ok := r.(multiRender); ok {
			// Ablations serialize one entry per sweep, named like their CSV groups.
			for i, sub := range m {
				d.jsonOut = append(d.jsonOut, jsonEntry{Experiment: d.csvNameFor(groups, i), Result: sub})
			}
		} else {
			d.jsonOut = append(d.jsonOut, jsonEntry{Experiment: name, Result: r})
		}
	case "csv":
		d.csvOut = append(d.csvOut, groups...)
	}
}

func (d *driver) csvNameFor(groups []exp.CellGroup, i int) string {
	if i < len(groups) {
		return groups[i].Experiment
	}
	return fmt.Sprintf("ablation-%d", i)
}

func (d *driver) finish() error {
	switch d.format {
	case "json":
		enc := json.NewEncoder(d.w)
		enc.SetIndent("", "  ")
		return enc.Encode(d.jsonOut)
	case "csv":
		return exp.WriteCellsCSV(d.w, d.csvOut...)
	}
	return nil
}
