package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// outDir holds everything the benchmark writes: recorded counts, cached
// reference reports, and span files. It is relative to the working
// directory, the root of the checkout.
const outDir = ".bench_build/perfbench"

// binaryHash identifies this build of the benchmark (and with it the
// program it links), so stored counts and reference reports are only
// reused by the build that wrote them.
var binaryHash = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

// countGuard enforces that the host-independent work counts repeat exactly:
// across the iterations of a run, and across runs of one build on one
// workload, seed and mode.
type countGuard struct {
	path  string
	want  map[string]int64
	dirty bool
}

type storedCounts struct {
	Build  string           `json:"build"`
	Counts map[string]int64 `json:"counts"`
}

func newCountGuard(workload string, seed int64, traced bool) (*countGuard, error) {
	build, err := binaryHash()
	if err != nil {
		return nil, err
	}
	mode := 0
	if traced {
		mode = 1
	}
	g := &countGuard{path: filepath.Join(outDir, "counts", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, mode))}
	raw, err := os.ReadFile(g.path)
	if err == nil {
		var sc storedCounts
		if json.Unmarshal(raw, &sc) == nil && sc.Build == build {
			g.want = sc.Counts
		}
	}
	return g, nil
}

// check compares one iteration's counts with the first ones seen.
func (g *countGuard) check(got map[string]int64) error {
	if g.want == nil {
		g.want, g.dirty = got, true
		return nil
	}
	var diff []string
	for k, v := range got {
		if w, ok := g.want[k]; !ok || w != v {
			diff = append(diff, fmt.Sprintf("%s: %d, earlier %d", k, v, w))
		}
	}
	for k, w := range g.want {
		if _, ok := got[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s: missing, earlier %d", k, w))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("host-independent counts changed between runs of one build and seed: %s", strings.Join(diff, "; "))
	}
	return nil
}

// save records the counts for later runs of the same build.
func (g *countGuard) save() error {
	if !g.dirty {
		return nil
	}
	build, err := binaryHash()
	if err != nil {
		return err
	}
	return writeJSON(g.path, storedCounts{Build: build, Counts: g.want})
}

// cached returns what compute yields for one workload and seed: computed
// on the first run of a build, read back on later runs of the same build.
// It holds the reference reports, which take longer to compute than the
// timed run itself.
func cached[T any](workload string, seed int64, compute func() (T, error)) (T, error) {
	var v T
	build, err := binaryHash()
	if err != nil {
		return v, err
	}
	path := filepath.Join(outDir, "refs", fmt.Sprintf("%s-seed%d-%s.json", workload, seed, build))
	if raw, err := os.ReadFile(path); err == nil && json.Unmarshal(raw, &v) == nil {
		return v, nil
	}
	if v, err = compute(); err != nil {
		return v, err
	}
	return v, writeJSON(path, v)
}

// writeJSON writes v to path atomically.
func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
