package core

import (
	"sort"

	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
)

// OnNotice handles an on-demand job's advance notice (paper §III-B.1).
func (m *Mechanism) OnNotice(j *job.Job) {
	if m.notice == NoticeN {
		return // N: the baseline notice strategy ignores advance notices.
	}
	s := m.state(j)
	if s.arrived || s.started {
		return
	}
	// Both CUA and CUP first reserve the currently available nodes.
	m.e.Cluster().Reserve(j.ID, j.Size-m.gathered(j.ID))
	if m.cfg.BackfillReserved {
		m.e.SetClaimBackfillable(j.ID, true)
	}
	// Release reserved nodes if the job has not shown up some time after its
	// estimated arrival (paper §III-B.4).
	s.timeout = m.e.ScheduleTimer(j.EstArrival+m.cfg.ReleaseThreshold, timeoutTimer{odID: j.ID})

	if m.gathered(j.ID) < j.Size {
		// Collect nodes released by finishing jobs until satisfied or the
		// job arrives; competing on-demand jobs are served in notice order.
		m.registerCollector(s)
	}
	if m.notice == NoticeCUP {
		m.planCUP(s)
	}
}

// planCUP covers the shortfall that released nodes cannot: it counts running
// jobs whose estimated end precedes the predicted arrival as expected
// releases, then schedules preemptions for the cheapest remaining candidates
// — rigid jobs right after their next checkpoint before the predicted
// arrival, malleable jobs one warning period ahead of it (paper §III-B.1).
func (m *Mechanism) planCUP(s *odState) {
	now := m.e.Now()
	estArrival := s.j.EstArrival
	shortfall := s.j.Size - m.gathered(s.j.ID)

	type candidate struct {
		j        *job.Job
		overhead int64
		fireAt   int64
	}
	var cands []candidate
	for _, r := range m.e.Running() {
		var estEnd int64
		if r.Class == job.Malleable {
			r.UpdateProgress(now)
			estEnd = r.MalleableEstimatedEnd(now)
		} else {
			estEnd = r.EstimatedEnd()
		}
		if estEnd <= estArrival {
			// Expected release: its nodes come back on their own.
			shortfall -= r.CurSize
			continue
		}
		switch r.Class {
		case job.Malleable:
			fire := estArrival - job.WarningPeriod
			if fire < now {
				fire = now
			}
			cands = append(cands, candidate{j: r, overhead: r.SetupTime, fireAt: fire})
		case job.Rigid:
			// Only rigid jobs that complete a checkpoint before the
			// predicted arrival are cheap to preempt; the rest are left to
			// the arrival strategy.
			if ct, ok := r.NextCheckpointCompletion(now); ok && ct <= estArrival {
				cands = append(cands, candidate{j: r, overhead: r.SetupTime, fireAt: ct})
			}
		}
	}
	if shortfall <= 0 {
		return
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].overhead != cands[b].overhead {
			return cands[a].overhead < cands[b].overhead
		}
		return cands[a].j.ID < cands[b].j.ID
	})
	for _, c := range cands {
		if shortfall <= 0 {
			break
		}
		ev := m.e.ScheduleTimer(c.fireAt, cupTimer{odID: s.j.ID, victim: c.j.ID})
		s.cupTimers = append(s.cupTimers, ev)
		shortfall -= c.j.CurSize
	}
}

// handleCUPPreempt executes one planned CUP preemption if it is still needed
// and the victim is still running.
func (m *Mechanism) handleCUPPreempt(odID, victimID int) {
	s, ok := m.states[odID]
	if !ok || s.arrived || s.started {
		return
	}
	need := s.j.Size - m.gathered(odID) - s.incoming
	if need <= 0 {
		return
	}
	var victim *job.Job
	for _, r := range m.e.Running() {
		if r.ID == victimID {
			victim = r
			break
		}
	}
	if victim == nil {
		return // ended or already preempted by someone else
	}
	m.preemptFor(s, victim)
}

// preemptFor preempts victim on behalf of claim s: rigid jobs vacate
// immediately and the claim keeps what it needs; malleable jobs get the
// two-minute warning and deliver on expiry.
func (m *Mechanism) preemptFor(s *odState, victim *job.Job) {
	if victim.Class == job.Malleable {
		expect := victim.CurSize
		m.victims[victim.ID] = victimInfo{claim: s.j.ID, expect: expect}
		s.incoming += expect
		m.e.PreemptMalleableWithWarning(victim, s.j.ID)
		return
	}
	freed := m.e.PreemptRigid(victim)
	m.takeForClaim(s, freed, loanPreempted, victim.ID)
}

// takeForClaim moves as much of the freed set as the claim still needs into
// its reservation and records the loan against the lender.
func (m *Mechanism) takeForClaim(s *odState, freed *nodeset.Set, kind loanKind, lender int) {
	need := s.j.Size - m.gathered(s.j.ID)
	if need <= 0 || freed.Empty() {
		return
	}
	take := freed.Clone().Pick(need)
	if take.Empty() {
		return
	}
	m.e.Cluster().ReserveExact(s.j.ID, take)
	s.loans = append(s.loans, loan{lender: lender, kind: kind, nodes: take})
}

// registerCollector adds an on-demand job to the collector list (idempotent).
// Registrations happen at their priority instant — the notice time, or the
// arrival time for jobs without (useful) notice — so append order is exactly
// the paper's earliest-advance-notice order.
func (m *Mechanism) registerCollector(s *odState) {
	if s.collecting || s.started {
		return
	}
	s.collecting = true
	m.collectors = append(m.collectors, s)
}

// offerToCollectors hands freshly released nodes to collecting on-demand
// jobs in advance-notice order (paper §III-B.1); whatever is left over stays
// in the free pool and freed itself is not modified. A queued (already
// arrived) collector whose gather completes starts on the spot.
func (m *Mechanism) offerToCollectors(freed *nodeset.Set) {
	if len(m.collectors) == 0 {
		return
	}
	remaining := freed.Clone()
	active := m.collectors[:0]
	for _, s := range m.collectors {
		if !s.collecting || s.started {
			continue
		}
		need := s.j.Size - m.gathered(s.j.ID)
		if need > 0 && !remaining.Empty() {
			take := remaining.Pick(need)
			m.e.Cluster().ReserveExact(s.j.ID, take)
			need = s.j.Size - m.gathered(s.j.ID)
		}
		if need <= 0 {
			s.collecting = false
			if s.arrived && !s.started {
				m.e.StartOnDemand(s.j)
			}
			continue
		}
		active = append(active, s)
	}
	m.collectors = active
}

// handleReleaseTimeout releases an absent on-demand job's reservation
// (paper §III-B.4) and gives loaned nodes back to their lenders.
func (m *Mechanism) handleReleaseTimeout(odID int) {
	s, ok := m.states[odID]
	if !ok || s.arrived || s.started {
		return
	}
	m.stopPreparation(s)
	// The preparation preempted or shrank jobs for nothing: give the nodes
	// straight back to the lenders before the pool swallows them. With no
	// reservation left there is nothing to give; the loans are settled all
	// the same.
	if held := m.e.Cluster().UnreserveAll(odID); held != nil {
		m.returnLoans(s, held)
	} else {
		s.loans = nil
	}
}

// stopPreparation cancels every outstanding preparation activity for an
// on-demand job: collection, planned preemptions, timeout, and (if enabled)
// squatter eviction bookkeeping. Reserved nodes are left in place.
func (m *Mechanism) stopPreparation(s *odState) {
	s.collecting = false
	for _, ev := range s.cupTimers {
		m.e.CancelTimer(ev)
	}
	s.cupTimers = nil
	if s.timeout != nil {
		m.e.CancelTimer(s.timeout)
		s.timeout = nil
	}
	if m.cfg.BackfillReserved {
		m.e.DropClaimSquats(s.j.ID)
		m.e.SetClaimBackfillable(s.j.ID, false)
	}
}
