package sweepflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parse registers the shared flags on a fresh set, parses args, and checks.
func parse(t *testing.T, axes bool, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, 1, axes)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f, f.Check()
}

// TestCheckRejects: every bad value is a usage error from Check, raised
// before a command generates a trace or opens an output file. Out-of-range
// sizes in particular must not fall through to a library default.
func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name string
		axes bool
		args []string
		want string
	}{
		{"nodes negative", true, []string{"-nodes", "-5"}, "-nodes"},
		{"nodes zero", false, []string{"-nodes", "0"}, "-nodes"},
		{"weeks zero", true, []string{"-weeks", "0"}, "-weeks"},
		{"seeds zero", false, []string{"-seeds", "0"}, "-seeds"},
		{"seeds negative", true, []string{"-seeds", "-1"}, "-seeds"},
		{"format", true, []string{"-format", "xml"}, "unknown output format"},
		{"policy", false, []string{"-policy", "lifo"}, `unknown policy "lifo"`},
		{"source", true, []string{"-source", "bogus:x"}, "bogus"},
		{"source missing file", false, []string{"-source", "csv:/nonexistent/t.csv"}, "t.csv"},
		{"mtbf garbage", true, []string{"-mtbf", "6h,x"}, "-mtbf"},
		{"mtbf negative", false, []string{"-mtbf", "-1h"}, "non-negative"},
		{"mtbf axis zero", true, []string{"-mtbf", "0,6h"}, "positive"},
		{"mtbf list in single mode", false, []string{"-mtbf", "6h,24h"}, "one duration"},
		{"repair list in single mode", false, []string{"-mtbf", "6h", "-repair", "0,1h"}, "one duration"},
		{"repair negative", true, []string{"-repair", "-1h"}, "non-negative"},
		{"repair without mtbf", false, []string{"-repair", "1h"}, "requires -mtbf"},
		{"drain", true, []string{"-drain", "24h:512"}, "-drain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.axes, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckAccepts(t *testing.T) {
	f, err := parse(t, true, "-mtbf", "6h, 24h", "-repair", "0,1h", "-drain", "24h+4h:128")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{21600, 86400}; !reflect.DeepEqual(f.MTBFs, want) {
		t.Fatalf("MTBFs = %v, want %v", f.MTBFs, want)
	}
	if want := []float64{0, 3600}; !reflect.DeepEqual(f.Repairs, want) {
		t.Fatalf("Repairs = %v, want %v", f.Repairs, want)
	}
	if len(f.Drains) != 1 || f.Drains[0].Nodes != 128 {
		t.Fatalf("Drains = %+v", f.Drains)
	}

	f, err = parse(t, false, "-mtbf", "6h", "-repair", "1h", "-seeds", "3")
	if err != nil {
		t.Fatal(err)
	}
	if f.MTBF() != 21600 || f.Repair() != 3600 || f.Seeds != 3 {
		t.Fatalf("MTBF %g Repair %g Seeds %d", f.MTBF(), f.Repair(), f.Seeds)
	}

	// Unset and explicit-zero single values both mean "no injection".
	for _, args := range [][]string{nil, {"-mtbf", "0"}} {
		f, err = parse(t, false, args...)
		if err != nil || f.MTBF() != 0 || f.Repair() != 0 {
			t.Fatalf("%q: MTBF %g Repair %g err %v", args, f.MTBF(), f.Repair(), err)
		}
	}
}

func TestCheckName(t *testing.T) {
	valid := []string{"fcfs", "sjf"}
	if err := CheckName("policy", "sjf", valid); err != nil {
		t.Fatal(err)
	}
	err := CheckName("policy", "", valid)
	if err == nil || !strings.Contains(err.Error(), "valid: fcfs, sjf") {
		t.Fatalf("CheckName(\"\") = %v, want the valid names listed", err)
	}
}
