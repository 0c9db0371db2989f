package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareBaselineAllocs pins the allocation gate: a scale or grid row
// fails when its allocs/event rises more than 5% above a non-zero baseline
// value, and a zero baseline value gates nothing.
func TestCompareBaselineAllocs(t *testing.T) {
	base := output{
		Benchmarks: []measurement{{Mechanism: "baseline", Mix: "W1", AllocsPerEvent: 2}},
		Scale: []scaleMeasurement{
			{Nodes: 16384, Weeks: 1, Mechanism: "baseline", Mix: "W3", EventsPerSec: 100, AllocsPerEvent: 1},
			{Nodes: 131072, Weeks: 1, Mechanism: "baseline", Mix: "W3", EventsPerSec: 100},
		},
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	doc := func(grid, wide, wider float64) output {
		return output{
			Benchmarks: []measurement{{Mechanism: "baseline", Mix: "W1", AllocsPerEvent: grid}},
			Scale: []scaleMeasurement{
				{Nodes: 16384, Weeks: 1, Mechanism: "baseline", Mix: "W3", EventsPerSec: 100, AllocsPerEvent: wide},
				{Nodes: 131072, Weeks: 1, Mechanism: "baseline", Mix: "W3", EventsPerSec: 100, AllocsPerEvent: wider},
			},
		}
	}
	if err := compareBaseline(doc(2.1, 1.05, 50), path, 0.25); err != nil {
		t.Fatalf("rows within 5%% (and an ungated row) failed: %v", err)
	}
	err = compareBaseline(doc(2, 1.06, 1), path, 0.25)
	if err == nil || !strings.Contains(err.Error(), "scale 16384/1w/baseline/W3") || strings.Contains(err.Error(), "W1") {
		t.Fatalf("scale row 6%% over its ceiling: got %v", err)
	}
	err = compareBaseline(doc(2.2, 1, 1), path, 0.25)
	if err == nil || !strings.Contains(err.Error(), "baseline/W1") {
		t.Fatalf("grid row 10%% over its ceiling: got %v", err)
	}
}
