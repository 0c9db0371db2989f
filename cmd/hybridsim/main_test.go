package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"hybridsched"
	"hybridsched/internal/runner"
)

// TestMain lets a test run the command itself: a test binary re-executed by
// runMain with HYBRIDSIM_RUN_MAIN set calls main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("HYBRIDSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs hybridsim with args in dir and returns its exit status,
// stdout, and stderr.
func runMain(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "HYBRIDSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	var exitErr *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), stderr.String()
}

// TestSourceReplayMatchesSimulate pins the trace replay path: for every
// mechanism, `-source csv:F -format csv` reports exactly what Simulate
// reports on the same records. The CSV carries no wall-clock fields (the
// decision-latency pair simtest.ReportJSON zeroes), so the comparison is
// byte for byte. Rerunning with -checkpoint over a finished directory skips
// every cell and prints the same CSV.
func TestSourceReplayMatchesSimulate(t *testing.T) {
	const nodes = 256
	dir := t.TempDir()
	records, err := hybridsched.GenerateWorkload(hybridsched.WorkloadConfig{
		Seed: 3, Weeks: 1, Nodes: nodes, Mix: hybridsched.W5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := hybridsched.WriteTraceCSV(&trace, records); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "t.csv"), trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var want runner.Sweep
	for _, m := range hybridsched.Mechanisms() {
		rep, err := hybridsched.Simulate(hybridsched.SimulationConfig{Nodes: nodes, Mechanism: m}, records)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want.Results = append(want.Results, runner.Result{
			Spec: runner.Spec{
				Group: "sweep", Variant: m, Mechanism: m, Policy: "fcfs", Nodes: nodes, Source: "csv:t.csv",
			},
			Report: rep,
		})
	}
	var wantCSV bytes.Buffer
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	args := []string{"-source", "csv:t.csv", "-mechs", "all", "-nodes", "256", "-format", "csv", "-q"}
	for _, run := range []struct {
		name string
		args []string
	}{
		{"plain", args},
		{"checkpoint fresh", slices.Concat(args, []string{"-checkpoint", "ckpt"})},
		{"checkpoint finished", slices.Concat(args, []string{"-checkpoint", "ckpt"})},
	} {
		code, got, stderr := runMain(t, dir, run.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", run.name, code, stderr)
		}
		if got != wantCSV.String() {
			t.Fatalf("%s: CSV differs from Simulate\ngot:\n%s\nwant:\n%s", run.name, got, wantCSV.String())
		}
	}
	if done, _ := filepath.Glob(filepath.Join(dir, "ckpt", "*")); len(done) == 0 {
		t.Fatal("-checkpoint left nothing in its directory")
	}
}

// TestUsageErrors: bad flag values, including flags that no longer exist,
// exit 2 before any trace is generated or any cell runs.
func TestUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown mix":         {"-mix", "W9"},
		"zero nodes":          {"-nodes", "0"},
		"zero weeks":          {"-weeks", "0"},
		"zero seeds":          {"-seeds", "0"},
		"negative seeds":      {"-seeds", "-2"},
		"empty mechanism":     {"-mechs", "CUA&SPAA,"},
		"unknown policy":      {"-policy", "lifo"},
		"mtbf list":           {"-mtbf", "6h,24h"},
		"repair without mtbf": {"-repair", "1h"},
		"output format":       {"-format", "xml"},
		"removed -trace":      {"-trace", "t.csv"},
		"removed -out":        {"-out", "csv"},
		"removed -restore":    {"-restore", "ckpt"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runMain(t, t.TempDir(), slices.Concat([]string{"-weeks", "1", "-nodes", "64"}, args)...)
			if code != 2 || stdout != "" {
				t.Fatalf("exit %d, stdout %q, want exit 2 and no output; stderr: %s", code, stdout, stderr)
			}
		})
	}
}
