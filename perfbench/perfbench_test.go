package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"hybridsched/internal/simtest"
	"hybridsched/internal/trace"
)

// identityCells cover the mechanism families, the fault injector, and the
// reshaping paths (preemption warnings, shrinks, timers).
var identityCells = []cell{
	{mech: "baseline", mix: "W1", seed: 11, nodes: 512, weeks: 1},
	{mech: "CUA&SPAA", mix: "W5", seed: 7, nodes: 512, weeks: 1},
	{mech: "CUP&PAA", mix: "W2", seed: 3, nodes: 512, weeks: 1},
	{mech: "N&SPAA", mix: "W5", seed: 5, nodes: 512, weeks: 1, faultMTBF: 6 * 3600, faultRepair: 2 * 3600},
}

func canonicalRun(t *testing.T, c cell, recs []trace.Record, tr *tracer) []byte {
	t.Helper()
	var m meter
	d, err := c.engine(recs, false, tr, &m)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.drain(); err != nil {
		t.Fatal(err)
	}
	b, err := simtest.ReportJSON(d.e.Report())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWrapperIdentity checks that the timing decorator, the recording
// stopwatch and the traced stepper (event sink, planner replay) leave
// canonical reports byte-identical.
func TestWrapperIdentity(t *testing.T) {
	for _, c := range identityCells {
		t.Run(c.mech+"/"+c.mix, func(t *testing.T) {
			recs, err := generate(nil, c.seed, c.nodes, c.weeks, c.mix)
			if err != nil {
				t.Fatal(err)
			}
			plain := canonicalRun(t, c, recs, nil)
			tr := newTracer()
			traced := canonicalRun(t, c, recs, tr)
			if !bytes.Equal(plain, traced) {
				t.Fatalf("traced report differs:\nplain  %.300s\ntraced %.300s", plain, traced)
			}
			if tr.stats(prefixed("sim.step.")).n == 0 || tr.stats(clusterOp).n == 0 {
				t.Fatal("traced run recorded no steps or cluster operations")
			}
		})
	}
}

// TestWrappedSnapshot checks that Snapshot works through the decorator: a
// frame taken mid-run from a wrapped engine restores into both a wrapped and
// an unwrapped engine, and both finish with the uninterrupted run's report.
// (Frames themselves carry wall-clock decision latencies, so they are not
// compared byte for byte.)
func TestWrappedSnapshot(t *testing.T) {
	for _, c := range identityCells[1:] {
		t.Run(c.mech+"/"+c.mix, func(t *testing.T) {
			recs, err := generate(nil, c.seed, c.nodes, c.weeks, c.mix)
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalRun(t, c, recs, nil)
			d, err := c.engine(recs, false, newTracer(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if _, err := d.step(); err != nil {
					t.Fatal(err)
				}
			}
			frame, err := d.e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				restored, err := c.engine(recs, false, tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.e.LoadSnapshot(frame); err != nil {
					t.Fatal(err)
				}
				if err := restored.drain(); err != nil {
					t.Fatal(err)
				}
				got, err := simtest.ReportJSON(restored.e.Report())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("restored engine (traced=%v) finished with a different report", tr != nil)
				}
			}
		})
	}
}

// benchmarkDoc is the part of BENCHMARK.json the smoke test checks.
type benchmarkDoc struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func names(xs []struct{ Name string }) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at a small size, untraced and traced, and
// checks that the outputs are correct and the printed metrics are exactly
// the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	doc := readDoc(t)
	small := map[string]func(tr *tracer) (instance, error){
		"paper-sweep": func(tr *tracer) (instance, error) { return newPaperSweep(1, tr, 512, 1, 1) },
		"wide":        func(tr *tracer) (instance, error) { return newWide(1, tr, 4, 512, 1) },
		"deep":        func(tr *tracer) (instance, error) { return newDeep(1, 2, 512), nil },
		"serve":       func(tr *tracer) (instance, error) { return newServe(1, tr, 512, 1, 2) },
	}
	var declared []string
	for _, w := range doc.Workloads {
		declared = append(declared, w.Name)
	}
	if len(declared) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %v, the benchmark has %d workloads", declared, len(workloads))
	}
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				setupTr := newTracer()
				inst, err := small[w.name](setupTr)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				if err := inst.prepare(); err != nil {
					t.Fatal(err)
				}
				guard, err := newCountGuard(w.name, 1, traced)
				if err != nil {
					t.Fatal(err)
				}
				res := result{Metrics: map[string]metric{}}
				want := names(doc.EndToEnd)
				if traced {
					err = measureTraced(w, inst, setupTr, 0, &res, guard)
					want = names(doc.PerLayer)
				} else {
					err = measure(w, inst, []float64{0.001}, 0, &res, guard)
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed", traced, res.Failed, res.Attempted)
				}
				if got := keys(res.Metrics); !slices.Equal(got, want) {
					t.Fatalf("traced=%v: metrics\n got  %v\n want %v", traced, got, want)
				}
				if !traced {
					for name, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			}
		})
	}
}
