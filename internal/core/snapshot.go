package core

import (
	"fmt"
	"sort"

	"hybridsched/internal/eventq"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/sim"
	"hybridsched/internal/snapshot"
)

// Timer payload tags.
const (
	timerTagTimeout uint8 = 1
	timerTagCUP     uint8 = 2
)

// EncodeTimerPayload serializes the mechanism's two timer payloads: the
// no-show release timeout and a planned CUP preemption.
func (m *Mechanism) EncodeTimerPayload(e *snapshot.Enc, payload any) error {
	switch p := payload.(type) {
	case timeoutTimer:
		e.U8(timerTagTimeout)
		e.Int(p.odID)
	case cupTimer:
		e.U8(timerTagCUP)
		e.Int(p.odID)
		e.Int(p.victim)
	default:
		return fmt.Errorf("core: unknown timer payload %T", payload)
	}
	return nil
}

// DecodeTimerPayload reads one payload written by EncodeTimerPayload.
func (m *Mechanism) DecodeTimerPayload(d *snapshot.Dec) (any, error) {
	switch tag := d.U8(); tag {
	case timerTagTimeout:
		return timeoutTimer{odID: d.Int()}, d.Err()
	case timerTagCUP:
		return cupTimer{odID: d.Int(), victim: d.Int()}, d.Err()
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, d.Failf("core: unknown timer tag %d", tag)
	}
}

// EncodeSnapshotState serializes the mechanism's dynamic state: every
// on-demand job's preparation state, the collector order, and the outstanding
// preemption victims. Map-shaped state is written in sorted key order; timer
// handles are written as event sequence numbers, and only live ones — a fired
// or cancelled handle is semantically dead (CancelTimer on it is a no-op) and
// its event no longer exists to re-link.
func (m *Mechanism) EncodeSnapshotState(e *snapshot.Enc) error {
	ids := make([]int, 0, len(m.states))
	for id := range m.states {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		s := m.states[id]
		e.Int(id)
		e.Bool(s.arrived)
		e.Bool(s.started)
		e.Bool(s.collecting)
		e.Bool(s.pending)
		e.Int(s.incoming)
		if s.timeout != nil && m.e.TimerPending(s.timeout) {
			e.Bool(true)
			e.U64(s.timeout.Seq())
		} else {
			e.Bool(false)
		}
		live := make([]*eventq.Event, 0, len(s.cupTimers))
		for _, ev := range s.cupTimers {
			if m.e.TimerPending(ev) {
				live = append(live, ev)
			}
		}
		e.U32(uint32(len(live)))
		for _, ev := range live {
			e.U64(ev.Seq())
		}
		e.U32(uint32(len(s.loans)))
		for _, l := range s.loans {
			e.Int(l.lender)
			e.U8(uint8(l.kind))
			l.nodes.EncodeSnapshot(e)
		}
	}
	// Collectors, in notice order. An entry whose state was deleted at
	// completion is dropped: the next offer pass would discard it unchanged.
	// A job whose collection stopped and later restarted is listed twice
	// until an offer pass prunes its stale entry; only the first entry is
	// written. An offer pass serves a job at its first entry, and a second
	// entry is reached only once the job is satisfied (and skipped) or the
	// pool is empty (and it gets nothing), so the list without the later
	// duplicates schedules identically.
	collecting := make([]int, 0, len(m.collectors))
	listed := make(map[int]bool, len(m.collectors))
	for _, s := range m.collectors {
		if _, ok := m.states[s.j.ID]; ok && !listed[s.j.ID] {
			listed[s.j.ID] = true
			collecting = append(collecting, s.j.ID)
		}
	}
	e.Ints(collecting)
	vids := make([]int, 0, len(m.victims))
	for id := range m.victims {
		vids = append(vids, id)
	}
	sort.Ints(vids)
	e.U32(uint32(len(vids)))
	for _, id := range vids {
		v := m.victims[id]
		e.Int(id)
		e.Int(v.claim)
		e.Int(v.expect)
	}
	return nil
}

// DecodeSnapshotState restores state written by EncodeSnapshotState. Jobs and
// timer events are re-linked through the restore context; everything decodes
// into staging maps and commits only when the whole section has validated, so
// a malformed payload leaves the mechanism untouched.
func (m *Mechanism) DecodeSnapshotState(d *snapshot.Dec, rc *sim.RestoreContext) error {
	n := d.Count(29) // id + 4 flags + incoming + timeout flag + 2 counts
	states := make(map[int]*odState, n)
	for i := 0; i < n; i++ {
		id := d.Int()
		s := &odState{
			arrived:    d.Bool(),
			started:    d.Bool(),
			collecting: d.Bool(),
			pending:    d.Bool(),
			incoming:   d.Int(),
		}
		if d.Err() != nil {
			return d.Err()
		}
		j, ok := rc.JobByID(id)
		if !ok {
			return d.Failf("core: state for unknown job %d", id)
		}
		s.j = j
		if d.Bool() {
			seq := d.U64()
			if d.Err() != nil {
				return d.Err()
			}
			ev, ok := rc.Event(seq)
			if !ok {
				return d.Failf("core: timeout timer seq %d not pending", seq)
			}
			s.timeout = ev
		}
		nt := d.Count(8)
		for k := 0; k < nt; k++ {
			seq := d.U64()
			if d.Err() != nil {
				return d.Err()
			}
			ev, ok := rc.Event(seq)
			if !ok {
				return d.Failf("core: preemption timer seq %d not pending", seq)
			}
			s.cupTimers = append(s.cupTimers, ev)
		}
		nl := d.Count(13)
		for k := 0; k < nl; k++ {
			lender := d.Int()
			kind := loanKind(d.U8())
			set := nodeset.DecodeSnapshotSet(d)
			if d.Err() != nil {
				return d.Err()
			}
			if kind != loanPreempted && kind != loanShrunk {
				return d.Failf("core: invalid loan kind %d", kind)
			}
			s.loans = append(s.loans, loan{lender: lender, kind: kind, nodes: set})
		}
		if d.Err() != nil {
			return d.Err()
		}
		if _, dup := states[id]; dup {
			return d.Failf("core: duplicate state for job %d", id)
		}
		states[id] = s
	}
	var collectors []*odState
	seen := make(map[int]bool)
	for _, id := range d.Ints() {
		s, ok := states[id]
		if !ok {
			return d.Failf("core: collector %d has no state", id)
		}
		if seen[id] {
			return d.Failf("core: duplicate collector %d", id)
		}
		seen[id] = true
		collectors = append(collectors, s)
	}
	nv := d.Count(24)
	victims := make(map[int]victimInfo, nv)
	for i := 0; i < nv; i++ {
		id := d.Int()
		v := victimInfo{claim: d.Int(), expect: d.Int()}
		if _, dup := victims[id]; dup {
			return d.Failf("core: duplicate victim %d", id)
		}
		victims[id] = v
	}
	if d.Err() != nil {
		return d.Err()
	}
	m.states = states
	m.collectors = collectors
	m.victims = victims
	return nil
}
