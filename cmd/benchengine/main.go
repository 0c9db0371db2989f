// Command benchengine measures the discrete-event scheduling core: full-run
// event throughput (events/sec) and allocation budget (allocs per event) for
// every scheduler — the FCFS/EASY baseline plus the paper's six mechanisms —
// across the five Table III advance-notice mixes W1..W5 plus a fault-enabled
// W5 configuration (6 h MTBF, 2 h mean repair, exercising the availability
// model), at 1024 nodes over one simulated week, and emits the measurements
// as JSON. CI runs it to
// produce BENCH_engine.json, the engine point of the performance trajectory;
// run it locally to compare before/after a hot-path change:
//
//	go run ./cmd/benchengine -o BENCH_engine.json
//	go run ./cmd/benchengine -weeks 4 -nodes 4392   # paper-scale system
//
// The -scale flag adds a node-count axis (comma-separated sizes, or "default"
// for 1024,16384,131072) crossed with the -scale-weeks horizons, measuring
// how throughput holds up at warehouse scale; -stream N runs N short jobs
// through a ReleaseCompleted engine via the streaming Submit path, reporting
// peak live heap alongside throughput (the engine holds only in-flight jobs,
// so peak heap must not grow with N). -baseline FILE compares every row,
// the streamed-ingest one included, against a previously emitted document
// and exits 1 if any shared row's events/sec fell by more than -max-regress,
// or if a grid or scale row's allocs/event rose more than 5% above a
// non-zero baseline value (allocation counts do not depend on the host, so
// that bound needs no CI-runner slack).
//
// Trace generation and engine construction are excluded from the timed
// region; allocations are the runtime's malloc count over the run itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtest"
	"hybridsched/internal/trace"
)

// measurement is one (mechanism, mix) benchmark row.
type measurement struct {
	Mechanism      string  `json:"mechanism"`
	Mix            string  `json:"mix"`
	Jobs           int     `json:"jobs"`
	Events         int     `json:"events"`
	Seconds        float64 `json:"seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// scaleMeasurement is one point on the node-count scaling axis. Reference
// rows (with -scale-ref) run the same cell on the retained naive engine
// path — the heap event queue and full per-pass rescans — so the document
// records the optimized-vs-naive curve, not just the optimized one.
type scaleMeasurement struct {
	Nodes        int     `json:"nodes"`
	Weeks        int     `json:"weeks"`
	Mechanism    string  `json:"mechanism"`
	Mix          string  `json:"mix"`
	Reference    bool    `json:"reference,omitempty"`
	Jobs         int     `json:"jobs"`
	Events       int     `json:"events"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Allocs and AllocsPerEvent record the run's heap allocations, so the
	// allocation budget is tracked across widths, not only at 1024 nodes.
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// streamMeasurement is the streamed-ingest run: jobs submitted through the
// live Submit path into a ReleaseCompleted engine, with the peak live heap
// sampled between waves.
type streamMeasurement struct {
	Jobs         int     `json:"jobs"`
	Nodes        int     `json:"nodes"`
	Events       int     `json:"events"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
}

// output is the emitted document.
type output struct {
	Go         string             `json:"go"`
	Nodes      int                `json:"nodes"`
	Weeks      int                `json:"weeks"`
	Seed       int64              `json:"seed"`
	Iterations int                `json:"iterations"`
	Benchmarks []measurement      `json:"benchmarks"`
	Scale      []scaleMeasurement `json:"scale,omitempty"`
	Stream     *streamMeasurement `json:"stream,omitempty"`
}

func main() {
	var (
		nodes      = flag.Int("nodes", 1024, "system size (also scales the workload)")
		weeks      = flag.Int("weeks", 1, "trace length in weeks")
		seed       = flag.Int64("seed", 1, "workload seed")
		iters      = flag.Int("iters", 3, "runs per cell (best throughput wins, fewest allocs kept)")
		out        = flag.String("o", "", "output file (default stdout)")
		grid       = flag.Bool("grid", true, "run the full mechanism x mix grid")
		scale      = flag.String("scale", "", `node-count scaling axis: comma-separated sizes, or "default" for 1024,16384,131072`)
		scaleWeeks = flag.String("scale-weeks", "1,4", "horizons (weeks) crossed with the -scale sizes")
		scaleRef   = flag.Bool("scale-ref", false, "also measure each scale cell on the naive reference engine path")
		stream     = flag.Int("stream", 0, "streamed-ingest run: this many jobs through a ReleaseCompleted engine (0 = off)")
		baseline   = flag.String("baseline", "", "compare against this previously emitted document")
		maxRegress = flag.Float64("max-regress", 0.25, "with -baseline: fail if any shared row's events/sec fell by more than this fraction")
	)
	flag.Parse()

	doc := output{Go: runtime.Version(), Nodes: *nodes, Weeks: *weeks, Seed: *seed, Iterations: *iters}
	measure := func(label string, sc simtest.Scenario, records []trace.Record) {
		best := measurement{Mechanism: sc.Mechanism, Mix: label, Jobs: len(records)}
		for i := 0; i < *iters; i++ {
			m, err := runOnce(sc, records)
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %w", sc.Mechanism, label, err))
			}
			if m.EventsPerSec > best.EventsPerSec {
				best.Events, best.Seconds, best.EventsPerSec = m.Events, m.Seconds, m.EventsPerSec
			}
			if best.Allocs == 0 || m.Allocs < best.Allocs {
				best.Allocs = m.Allocs
			}
		}
		if best.Events > 0 {
			best.AllocsPerEvent = float64(best.Allocs) / float64(best.Events)
		}
		doc.Benchmarks = append(doc.Benchmarks, best)
	}
	if *grid {
		for _, mix := range simtest.Mixes() {
			sc := simtest.Scenario{Mix: mix, Seed: *seed, Nodes: *nodes, Weeks: *weeks}
			records, err := sc.Records()
			if err != nil {
				fatal(err)
			}
			for _, mech := range simtest.Mechanisms() {
				sc.Mechanism = mech
				measure(mix, sc, records)
			}
		}
		// Fault-enabled configs: the W5 mix under an aggressive failure
		// process (6 h MTBF, 2 h mean repair), so the performance trajectory
		// covers the availability model's hot paths — failure strikes, repair
		// events, and capacity-aware scheduler passes.
		sc := simtest.Scenario{Mix: "W5", Seed: *seed, Nodes: *nodes, Weeks: *weeks,
			FaultMTBF: 6 * 3600, FaultRepair: 2 * 3600}
		records, err := sc.Records()
		if err != nil {
			fatal(err)
		}
		for _, mech := range simtest.Mechanisms() {
			sc.Mechanism = mech
			measure("W5+faults", sc, records)
		}
	}

	if *scale != "" {
		sizes, err := parseInts(*scale, "default", []int{1024, 16384, 131072})
		if err != nil {
			fatal(fmt.Errorf("-scale: %w", err))
		}
		horizons, err := parseInts(*scaleWeeks, "", nil)
		if err != nil {
			fatal(fmt.Errorf("-scale-weeks: %w", err))
		}
		// One light (baseline) and one heavy (CUA&SPAA: loans, preemption
		// warnings, reshaping) scheduler per cell; W3 is the middle notice
		// mix. Single iteration — the scale runs are long enough to be
		// timing-stable on their own.
		for _, n := range sizes {
			for _, w := range horizons {
				for _, mech := range []string{"baseline", "CUA&SPAA"} {
					sc := simtest.Scenario{Mechanism: mech, Mix: "W3", Seed: *seed, Nodes: n, Weeks: w}
					records, err := sc.Records()
					if err != nil {
						fatal(err)
					}
					variants := []bool{false}
					if *scaleRef {
						variants = append(variants, true)
					}
					for _, ref := range variants {
						sc.Reference = ref
						m, err := runOnce(sc, records)
						if err != nil {
							fatal(fmt.Errorf("scale %d/%dw %s: %w", n, w, mech, err))
						}
						row := scaleMeasurement{
							Nodes: n, Weeks: w, Mechanism: mech, Mix: "W3", Reference: ref,
							Jobs: len(records), Events: m.Events,
							Seconds: m.Seconds, EventsPerSec: m.EventsPerSec, Allocs: m.Allocs,
						}
						if m.Events > 0 {
							row.AllocsPerEvent = float64(m.Allocs) / float64(m.Events)
						}
						doc.Scale = append(doc.Scale, row)
					}
				}
			}
		}
	}

	if *stream > 0 {
		m, err := runStream(*stream, *nodes)
		if err != nil {
			fatal(fmt.Errorf("stream: %w", err))
		}
		doc.Stream = &m
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}

	if *baseline != "" {
		if err := compareBaseline(doc, *baseline, *maxRegress); err != nil {
			fatal(err)
		}
	}
}

// runOnce executes one full simulation, timing only the event loop and
// counting its dispatched events and heap allocations.
func runOnce(sc simtest.Scenario, records []trace.Record) (measurement, error) {
	e, err := simtest.NewEngine(sc, records)
	if err != nil {
		return measurement{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := e.Run(); err != nil {
		return measurement{}, err
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	// DispatchedCount is exact: it excludes the rare deadlock-break steps
	// that Step reports as progress without popping an event.
	m := measurement{Events: e.DispatchedCount(), Seconds: secs, Allocs: after.Mallocs - before.Mallocs}
	if secs > 0 {
		m.EventsPerSec = float64(m.Events) / secs
	}
	return m, nil
}

// runStream pushes total short rigid jobs through the live Submit path of a
// ReleaseCompleted FCFS/EASY engine in fixed-size waves, draining between
// waves, and samples HeapAlloc after each drain. Job shapes come from a
// fixed-seed LCG, so the run is deterministic. A retained-jobs regression
// shows up as PeakHeapMB scaling with the job count instead of staying flat.
func runStream(total, nodes int) (streamMeasurement, error) {
	e, err := sim.New(sim.Config{Nodes: nodes, ReleaseCompleted: true}, nil, sim.Baseline{})
	if err != nil {
		return streamMeasurement{}, err
	}
	const wave = 8192
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	var peak uint64
	var ms runtime.MemStats
	runtime.GC()
	start := time.Now()
	id := 0
	for id < total {
		base := e.Now()
		for k := 0; k < wave && id < total; k++ {
			id++
			size := 1 + next(nodes/16+1)
			work := int64(60 + next(1800))
			j := job.NewRigid(id, 0, base+int64(k), size, work, work, 0, checkpoint.Plan{})
			if err := e.Submit(j); err != nil {
				return streamMeasurement{}, err
			}
		}
		for {
			more, err := e.Step()
			if err != nil {
				return streamMeasurement{}, err
			}
			if !more {
				break
			}
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	secs := time.Since(start).Seconds()
	m := streamMeasurement{
		Jobs: total, Nodes: nodes, Events: e.DispatchedCount(),
		Seconds: secs, PeakHeapMB: float64(peak) / (1 << 20),
	}
	if secs > 0 {
		m.EventsPerSec = float64(m.Events) / secs
	}
	return m, nil
}

// maxAllocGrowth is how far a row's allocs/event may rise above a non-zero
// baseline value before compareBaseline fails it.
const maxAllocGrowth = 0.05

// rowMetrics is what compareBaseline reads from a row.
type rowMetrics struct{ eventsPerSec, allocsPerEvent float64 }

// compareBaseline checks every row of doc that also appears in the baseline
// document — grid and scale rows by their cell, the streamed-ingest row when
// both documents ran the same job and node counts — and reports rows whose
// events/sec fell by more than maxRegress, or whose allocs/event rose by
// more than maxAllocGrowth over a non-zero baseline value. Rows only present
// on one side are ignored, so a conservative committed baseline can pin just
// the cells CI cares about.
func compareBaseline(doc output, path string, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base output
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	gridBase := make(map[string]rowMetrics, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		gridBase[b.Mechanism+"/"+b.Mix] = rowMetrics{b.EventsPerSec, b.AllocsPerEvent}
	}
	scaleBase := make(map[string]rowMetrics, len(base.Scale))
	for _, b := range base.Scale {
		scaleBase[scaleKey(b)] = rowMetrics{b.EventsPerSec, b.AllocsPerEvent}
	}
	var regressions []string
	check := func(key string, got, want rowMetrics) {
		if w := want.eventsPerSec; w > 0 && got.eventsPerSec < w*(1-maxRegress) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f events/sec vs baseline %.0f (-%.0f%%, bound -%.0f%%)",
					key, got.eventsPerSec, w, 100*(1-got.eventsPerSec/w), 100*maxRegress))
		}
		if w := want.allocsPerEvent; w > 0 && got.allocsPerEvent > w*(1+maxAllocGrowth) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.3f allocs/event vs baseline %.3f (+%.0f%%, bound +%.0f%%)",
					key, got.allocsPerEvent, w, 100*(got.allocsPerEvent/w-1), 100*maxAllocGrowth))
		}
	}
	for _, m := range doc.Benchmarks {
		if want, ok := gridBase[m.Mechanism+"/"+m.Mix]; ok {
			check(m.Mechanism+"/"+m.Mix, rowMetrics{m.EventsPerSec, m.AllocsPerEvent}, want)
		}
	}
	for _, m := range doc.Scale {
		if want, ok := scaleBase[scaleKey(m)]; ok {
			check("scale "+scaleKey(m), rowMetrics{m.EventsPerSec, m.AllocsPerEvent}, want)
		}
	}
	if m, b := doc.Stream, base.Stream; m != nil && b != nil && m.Jobs == b.Jobs && m.Nodes == b.Nodes {
		check(fmt.Sprintf("stream %d jobs/%d nodes", m.Jobs, m.Nodes),
			rowMetrics{eventsPerSec: m.EventsPerSec}, rowMetrics{eventsPerSec: b.EventsPerSec})
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark rows regressed beyond their bounds:\n  %s",
			strings.Join(regressions, "\n  "))
	}
	return nil
}

// scaleKey identifies a scale row for baseline comparison.
func scaleKey(m scaleMeasurement) string {
	key := fmt.Sprintf("%d/%dw/%s/%s", m.Nodes, m.Weeks, m.Mechanism, m.Mix)
	if m.Reference {
		key += "/ref"
	}
	return key
}

// parseInts splits a comma-separated integer list; the sentinel word (when
// non-empty) expands to the given defaults.
func parseInts(s, sentinel string, defaults []int) ([]int, error) {
	if sentinel != "" && s == sentinel {
		return defaults, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchengine:", err)
	os.Exit(1)
}
