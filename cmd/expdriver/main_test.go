package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets a test run the command itself: a test binary re-executed by
// runMain with EXPDRIVER_RUN_MAIN set calls main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPDRIVER_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs expdriver with args in dir and returns its exit status and
// stderr.
func runMain(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "EXPDRIVER_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	code := 0
	var exitErr *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, stderr.String()
}

// TestUsageErrorKeepsOutput: a bad flag value exits 2 and leaves an existing
// -o file untouched. Every flag is validated before -o is opened, and
// out-of-range sizes are rejected instead of silently replaced by the paper
// defaults. The size cases select tableiii, which simulates nothing, so a
// size that slipped through would finish at once and overwrite the file.
func TestUsageErrorKeepsOutput(t *testing.T) {
	const kept = "results from an earlier run\n"
	cases := map[string][]string{
		"output format":      {"-format", "xml"},
		"unknown experiment": {"-exp", "fig66"},
		"realtrace source":   {"-exp", "realtrace"},
		"negative nodes":     {"-exp", "tableiii", "-nodes", "-5"},
		"zero weeks":         {"-exp", "tableiii", "-weeks", "0"},
		"zero seeds":         {"-exp", "tableiii", "-seeds", "0"},
		"unknown policy":     {"-exp", "tableiii", "-policy", "lifo"},
		"bad source":         {"-exp", "tableiii", "-source", "csv:missing.csv"},
		"zero mtbf":          {"-exp", "tableiii", "-mtbf", "0,6h"},
		"bad drain":          {"-exp", "tableiii", "-drain", "24h:512"},
		"removed -resume":    {"-exp", "tableiii", "-resume", "ckpt"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "keep.csv")
			if err := os.WriteFile(out, []byte(kept), 0o644); err != nil {
				t.Fatal(err)
			}
			code, stderr := runMain(t, dir, slices.Concat(args, []string{"-q", "-o", "keep.csv"})...)
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if code != 2 || string(got) != kept {
				t.Fatalf("exit %d, keep.csv %q; want exit 2 and the file unchanged; stderr: %s", code, got, stderr)
			}
		})
	}

	// Control: with valid flags the same invocation does replace the file.
	dir := t.TempDir()
	if code, stderr := runMain(t, dir, "-exp", "tableiii", "-q", "-o", "keep.csv"); code != 0 {
		t.Fatalf("valid run: exit %d: %s", code, stderr)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "keep.csv")); err != nil || len(got) == 0 {
		t.Fatalf("valid run wrote %d bytes, err %v", len(got), err)
	}
}
