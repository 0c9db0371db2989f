// Package sweepflags is the shared front end of the sweep commands
// (hybridsim and expdriver): one spelling for every flag both declare, one
// place that validates them, and one pair of exit helpers. A command
// registers the shared set next to its own flags, parses, and calls Check
// before doing anything expensive — generating a trace, simulating a cell,
// or opening an output file.
package sweepflags

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hybridsched"
)

// Flags holds the shared sweep flags. Register binds the exported string,
// int, and bool fields; Check validates them and fills MTBFs, Repairs, and
// Drains from the raw -mtbf, -repair, and -drain text.
type Flags struct {
	Workers    int
	Source     string
	Policy     string
	Seed       int64
	Seeds      int
	Weeks      int
	Nodes      int
	Quiet      bool
	Checkpoint string
	Format     string

	MTBFs   []float64 // -mtbf values, seconds
	Repairs []float64 // -repair values, seconds (0 = instant repair)
	Drains  []hybridsched.DrainSpec

	mtbf, repair, drain string
	axes                bool
}

// Register declares the shared flags on fs. seeds is the command's default
// -seeds. With axes, -mtbf and -repair are comma-separated sweep axes;
// without, each takes at most one duration.
func Register(fs *flag.FlagSet, seeds int, axes bool) *Flags {
	f := &Flags{axes: axes}
	fs.IntVar(&f.Workers, "workers", 0, "parallel sweep workers (0 = all CPU cores)")
	fs.StringVar(&f.Source, "source", "", "replay this workload source spec instead of generating traces, e.g. 'csv:trace.csv' or 'swf:theta.swf|relabel:paper|scale:1.2' (-seed/-seeds/-weeks ignored)")
	fs.StringVar(&f.Policy, "policy", "fcfs", "queue policy: fcfs, sjf, ljf, wfp3, or a registered name")
	fs.Int64Var(&f.Seed, "seed", 1, "first workload seed")
	fs.IntVar(&f.Seeds, "seeds", seeds, "generated traces per grid point (seeds seed, seed+1, ...)")
	fs.IntVar(&f.Weeks, "weeks", 4, "generated trace length in weeks")
	fs.IntVar(&f.Nodes, "nodes", 4392, "system size in nodes")
	fs.BoolVar(&f.Quiet, "q", false, "suppress progress messages")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "persist per-cell progress into this directory and resume whatever it already holds: finished cells are skipped, interrupted cells continue from their snapshots")
	fs.StringVar(&f.Format, "format", "text", "output format: text, json, csv")
	if axes {
		fs.StringVar(&f.mtbf, "mtbf", "", "failure-MTBF axis: comma-separated durations, e.g. '6h,24h' (default 6h,24h)")
		fs.StringVar(&f.repair, "repair", "", "mean-repair axis: comma-separated durations, '0' = instant (default 0,1h)")
	} else {
		fs.StringVar(&f.mtbf, "mtbf", "", "inject node failures at this system MTBF, e.g. 6h (unset or 0 = no injection; also drives the Daly checkpoint plans)")
		fs.StringVar(&f.repair, "repair", "", "mean node repair time, e.g. 1h (unset or 0 = instant repair: capacity never shrinks)")
	}
	fs.StringVar(&f.drain, "drain", "", "maintenance windows 'start+duration:nodes', e.g. '24h+4h:512,96h+2h:256'")
	return f
}

// Check validates the parsed flags and fills MTBFs, Repairs, and Drains.
// Every error it returns is a usage error.
func (f *Flags) Check() error {
	switch f.Format {
	case "text", "json", "csv":
	default:
		return fmt.Errorf("-format: unknown output format %q (want text, json, or csv)", f.Format)
	}
	if f.Nodes < 1 || f.Weeks < 1 || f.Seeds < 1 {
		return fmt.Errorf("-nodes, -weeks and -seeds must be >= 1, got %d, %d and %d", f.Nodes, f.Weeks, f.Seeds)
	}
	if err := CheckName("policy", f.Policy, hybridsched.PolicyNames()); err != nil {
		return err
	}
	if f.Source != "" {
		// Parse now so a typo costs nothing (file heads also open here).
		if _, err := hybridsched.ParseSource(f.Source); err != nil {
			return err
		}
	}
	var err error
	if f.MTBFs, err = f.durations("-mtbf", f.mtbf); err != nil {
		return err
	}
	if f.Repairs, err = f.durations("-repair", f.repair); err != nil {
		return err
	}
	if f.axes && slices.Contains(f.MTBFs, 0) {
		return errors.New("-mtbf values must be positive")
	}
	if !f.axes && f.Repair() > 0 && f.MTBF() == 0 {
		return errors.New("-repair requires -mtbf (no failures to repair)")
	}
	if f.Drains, err = hybridsched.ParseDrains(f.drain); err != nil {
		return fmt.Errorf("-drain: %w", err)
	}
	return nil
}

// MTBF is the single -mtbf value in seconds (0 = no injection), for a
// command that does not sweep it.
func (f *Flags) MTBF() float64 { return first(f.MTBFs) }

// Repair is the single -repair value in seconds (0 = instant repair).
func (f *Flags) Repair() float64 { return first(f.Repairs) }

func first(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

// durations parses comma-separated non-negative Go durations ("6h,24h")
// into seconds. An empty string yields nil, so the command's defaults apply.
func (f *Flags) durations(name, s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if !f.axes && len(parts) > 1 {
		return nil, fmt.Errorf("%s takes one duration, got %q", name, s)
	}
	out := make([]float64, len(parts))
	for i, part := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("%s values must be non-negative, got %s", name, d)
		}
		out[i] = d.Seconds()
	}
	return out, nil
}

// CheckName rejects a name that is not in valid, listing the valid names.
func CheckName(kind, name string, valid []string) error {
	if slices.Contains(valid, name) {
		return nil
	}
	return fmt.Errorf("unknown %s %q (valid: %s)", kind, name, strings.Join(valid, ", "))
}

// Fatal reports a run error and exits 1.
func Fatal(err error) { exit(1, err) }

// FatalUsage reports a bad flag value and exits 2, the conventional
// usage-error status, before any expensive work has been done.
func FatalUsage(err error) { exit(2, err) }

func exit(code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(code)
}
