// Command perfbench is the repository's benchmark. It runs one named
// workload under a given seed for a fixed wall-clock budget, checks every
// output it produces against an independent oracle, and prints one JSON line
// with every metric by name and unit. With -trace 1 it instead runs the
// workload with spans around every call it makes into the program and prints
// the per-layer metrics. See README.md for the workloads and the metric map.
//
//	bash perfbench/run.sh --workload wide --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloadDef is one benchmark input shape.
type workloadDef struct {
	name string
	// setup builds the inputs for seed; it is timed (setup_s) and repeated.
	// On traced runs tr receives the set-up's own spans.
	setup func(seed int64, tr *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// prepare computes what the output checks compare against. It runs once,
	// outside every timed region.
	prepare() error
	// iterate runs the workload once. tr is nil on untraced runs. The meter
	// brackets exactly the timed region.
	iterate(m *meter, tr *tracer) (iteration, error)
	// close releases the instance's resources.
	close()
}

// iteration is what one run of a workload produced.
type iteration struct {
	events    int       // engine events dispatched
	latencyMS []float64 // one entry per client request
	attempted int       // checked operations
	failed    int       // operations that failed or produced a wrong output
	// counts are host-independent work counts; every iteration of one
	// workload and seed must repeat them exactly.
	counts map[string]int64
	// live is state the program still holds at the end of the timed
	// region; it stays reachable while the live heap is measured.
	live any
	// after runs once the live heap has been measured.
	after func()
}

var workloads = []workloadDef{
	{name: "paper-sweep", setup: setupPaperSweep},
	{name: "wide", setup: setupWide},
	{name: "deep", setup: setupDeep},
	{name: "serve", setup: setupServe},
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload name (paper-sweep, wide, deep, serve)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	res, err := run(*w, *seed, *seconds, *traced == 1)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// result is the benchmark's one-line output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it for the budget, and collects the
// metrics of the requested mode.
func run(w workloadDef, seed int64, budget float64, traced bool) (result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	inst, setupS, err := setUp(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return result{}, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	guard, err := newCountGuard(w.name, seed, traced)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	if traced {
		err = measureTraced(w, inst, tr, budget, &res, guard)
	} else {
		err = measure(w, inst, setupS, budget, &res, guard)
	}
	if err != nil {
		return result{}, err
	}
	if err := guard.save(); err != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setUp builds the workload setupRepeats times, keeps the last instance, and
// returns every set-up time.
func setUp(w workloadDef, seed int64, tr *tracer) (instance, []float64, error) {
	var (
		inst  instance
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		// Start each set-up from a collected heap, as every iteration does,
		// so garbage left by the previous one is not charged to it.
		runtime.GC()
		sp := tr.begin("setup")
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, tr)
		times = append(times, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
	}
	return inst, times, nil
}

// minIterations is the fewest timed iterations any run makes.
const minIterations = 3

// measure runs untraced iterations until the budget is spent and fills in
// the end-to-end metrics.
func measure(w workloadDef, inst instance, setupS []float64, budget float64, res *result, guard *countGuard) error {
	var (
		secs, evRate, allocs, bytes, heap, lat []float64
	)
	start := time.Now()
	for n := 0; n < minIterations || time.Since(start).Seconds() < budget; n++ {
		var m meter
		it, err := inst.iterate(&m, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		heap = append(heap, liveHeapMB(it.live))
		if it.after != nil {
			it.after()
		}
		res.Attempted += it.attempted
		res.Failed += it.failed
		if err := guard.check(it.counts); err != nil {
			return err
		}
		secs = append(secs, m.seconds)
		evRate = append(evRate, float64(it.events)/m.seconds)
		allocs = append(allocs, float64(m.mallocs)/float64(it.events))
		bytes = append(bytes, float64(m.allocBytes)/float64(it.events))
		lat = append(lat, it.latencyMS...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d iterations, %d requests, iteration seconds %.3f\n",
		w.name, len(secs), len(lat), secs)
	// Each metric is the median of its samples; the quartiles and sample
	// count go to standard error.
	put := func(name, unit string, xs []float64) {
		res.Metrics[name] = metric{Value: median(xs), Unit: unit}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s median %.6g %s, quartiles %.6g..%.6g, %d samples\n",
			w.name, name, median(xs), unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	put("setup_s", "s", setupS)
	put("events_per_s", "1/s", evRate)
	put("req_p50_ms", "ms", lat)
	put("allocs_per_event", "count", allocs)
	put("alloc_bytes_per_event", "bytes", bytes)
	put("live_heap_mb", "MB", heap)
	return nil
}

// liveHeapMB forces a collection while live is still reachable and returns
// the heap that survives it.
func liveHeapMB(live any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(live)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// meter brackets one timed region: wall time, heap allocations, and GC work.
type meter struct {
	t0         time.Time
	ms0        runtime.MemStats
	gc0        gcSample
	seconds    float64
	mallocs    uint64
	allocBytes uint64
	gc         gcSample // delta over the region
	paused     time.Duration
	pausedAt   time.Time
}

// begin starts the timed region after a collection, so garbage left by
// set-up or an earlier iteration is not charged to it.
func (m *meter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = readGC()
	m.t0 = time.Now()
}

// end closes the timed region.
func (m *meter) end() {
	m.seconds = (time.Since(m.t0) - m.paused).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs = ms.Mallocs - m.ms0.Mallocs
	m.allocBytes = ms.TotalAlloc - m.ms0.TotalAlloc
	m.gc = readGC().sub(m.gc0)
}

// pause stops the clock around measurement-only work inside the timed
// region; resume restarts it. Allocations made meanwhile still count.
func (m *meter) pause() {
	if m != nil {
		m.pausedAt = time.Now()
	}
}

func (m *meter) resume() {
	if m != nil {
		m.paused += time.Since(m.pausedAt)
	}
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
