package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 at the root
	run        int32 // 0: set-up; n: the n-th traced iteration
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory, plus the gauges and samples that are not
// durations (queue depths, byte counts, latencies the program reports).
// A nil *tracer records nothing, so untraced code paths call it freely.
// It is not safe for concurrent use; concurrent clients keep one each and
// merge them afterwards.
type tracer struct {
	epoch   time.Time
	run     int32
	spans   []span
	open    []int32 // stack of spans begun and not ended
	gauges  map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), gauges: map[string]float64{}, samples: map[string][]float64{}}
}

// child returns an empty tracer sharing t's epoch and run, for a concurrent
// client whose spans are merged back with merge.
func (t *tracer) child() *tracer {
	if t == nil {
		return nil
	}
	c := newTracer()
	c.epoch, c.run = t.epoch, t.run
	return c
}

// begin opens a span under the innermost open span and returns its handle.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, run: t.run, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// endAs closes span i and names it, for spans classified by what happened
// inside them.
func (t *tracer) endAs(i int32, name string) {
	if t == nil {
		return
	}
	t.end(i)
	t.spans[i].name = name
}

// add accumulates into a gauge.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.gauges[name] += v
	}
}

// max raises a gauge to v.
func (t *tracer) max(name string, v float64) {
	if t != nil && v > t.gauges[name] {
		t.gauges[name] = v
	}
}

// sample appends one observation.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// merge appends o's spans, gauges (summed; "max" gauges are named with a
// .max suffix and take the larger) and samples.
func (t *tracer) merge(o *tracer) {
	off := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		t.spans = append(t.spans, s)
	}
	for k, v := range o.gauges {
		if strings.HasSuffix(k, ".max") {
			t.max(k, v)
		} else {
			t.add(k, v)
		}
	}
	for k, v := range o.samples {
		t.samples[k] = append(t.samples[k], v...)
	}
}

// selfTimes returns each span's duration minus the time its direct children
// cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// spanStats summarizes the spans whose name matches.
type spanStats struct {
	n       int
	busyNS  int64
	selfNS  int64
	dursSec []float64
}

func (t *tracer) stats(match func(string) bool) spanStats {
	var st spanStats
	self := t.selfTimes()
	for i, s := range t.spans {
		if match(s.name) {
			st.n++
			st.busyNS += s.dur()
			st.selfNS += self[i]
			st.dursSec = append(st.dursSec, float64(s.dur())/1e9)
		}
	}
	return st
}

func named(names ...string) func(string) bool {
	return func(s string) bool {
		for _, n := range names {
			if s == n {
				return true
			}
		}
		return false
	}
}

func prefixed(p string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, p) }
}

// write stores the spans as CSV with their self times.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	fmt.Fprintln(w, "run,id,parent,name,start_ns,end_ns,self_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.run, i, s.parent, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
