package main

import (
	"bytes"
	"fmt"
	"time"

	"hybridsched/internal/simtest"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
)

// wide is the width cliff: one CUA&SPAA run of a four-week W3 trace on
// 131072 nodes, driven one virtual day per request. The trace is 32
// independent 4096-node traces merged (see mergedTrace).
const (
	wideParts     = 32
	widePartNodes = 4096
	wideWeeks     = 4
)

// wideSnapshotDay is the day after which the traced run snapshots and
// restores the engine.
const wideSnapshotDay = 14

type wideInst struct {
	seed    int64
	c       cell
	records []trace.Record
	ref     string
}

func setupWide(seed int64, tr *tracer) (instance, error) {
	return newWide(seed, tr, wideParts, widePartNodes, wideWeeks)
}

func newWide(seed int64, tr *tracer, parts, partNodes, weeks int) (*wideInst, error) {
	c := cell{mech: "CUA&SPAA", mix: "W3", seed: inputSeed(seed, "wide"), nodes: parts * partNodes, weeks: weeks}
	recs, err := mergedTrace(tr, c.seed, parts, partNodes, weeks, c.mix)
	if err != nil {
		return nil, err
	}
	return &wideInst{seed: seed, c: c, records: recs}, nil
}

func (w *wideInst) prepare() (err error) {
	w.ref, err = cached(fmt.Sprintf("wide-%d", w.c.nodes), w.seed, func() (string, error) { return w.c.reference(w.records) })
	return err
}

func (w *wideInst) close() {}

func (w *wideInst) iterate(m *meter, tr *tracer) (iteration, error) {
	it := iteration{}
	m.begin()
	d, err := w.c.engine(w.records, false, tr, m)
	if err != nil {
		return it, err
	}
	for day := int64(1); ; day++ {
		t0 := time.Now()
		if err := d.runUntil(day * simtime.Day); err != nil {
			return it, err
		}
		it.latencyMS = append(it.latencyMS, float64(time.Since(t0))/1e6)
		if tr != nil && day == wideSnapshotDay {
			m.pause()
			it.attempted++
			if err := w.snapshotRoundTrip(d, tr); err != nil {
				it.failed++
				warn(fmt.Errorf("wide: snapshot round trip: %w", err))
			}
			m.resume()
		}
		if _, pending := d.e.PeekTime(); !pending {
			break
		}
	}
	if err := d.drain(); err != nil {
		return it, err
	}
	rep := d.e.Report()
	m.end()
	it.events = d.e.DispatchedCount()
	it.attempted++
	if got, err := simtest.ReportJSON(rep); err != nil || string(got) != w.ref {
		it.failed++
		mismatch("wide", got, []byte(w.ref))
	}
	if err := d.finish(); err != nil {
		return it, err
	}
	it.counts = map[string]int64{"eventq.pops": int64(it.events), "requests": int64(len(it.latencyMS))}
	it.live = d
	return it, nil
}

// snapshotRoundTrip encodes the live engine, decodes the frame into a fresh
// engine, and checks that the restored engine encodes to the same bytes.
func (w *wideInst) snapshotRoundTrip(d *stepper, tr *tracer) error {
	sp := tr.begin("snapshot.encode")
	frame, err := d.e.Snapshot()
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.add("snapshot.bytes", float64(len(frame)))
	fresh, err := w.c.engine(w.records, false, nil, nil)
	if err != nil {
		return err
	}
	sp = tr.begin("snapshot.decode")
	err = fresh.e.LoadSnapshot(frame)
	tr.end(sp)
	if err != nil {
		return err
	}
	again, err := fresh.e.Snapshot()
	if err != nil {
		return err
	}
	if !bytes.Equal(frame, again) {
		return fmt.Errorf("restored engine encodes to different bytes")
	}
	return nil
}
