package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hybridsched"
	"hybridsched/internal/job"
	"hybridsched/internal/registry"
	"hybridsched/internal/server"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtest"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
)

// serve is a closed loop of serveClients clients against schedd's HTTP
// handler on a loopback listener, one keep-alive connection each. Each
// client runs serveSessions sessions one after another, each a CUA&SPAA
// session on 4392 nodes replaying its own W5 trace one virtual day at a
// time: the day's jobs, an advance of 24 hours, a checkpoint every seventh
// day, and finally the report.
const (
	serveClients   = 2
	serveSessions  = 4
	serveNodes     = 4392
	serveWeeks     = 4
	serveTailDays  = 2 // empty days after the last submission, so the queue drains
	serveCkptEvery = 7
)

type serveInst struct {
	seed     int64
	nodes    int
	stateDir string
	srv      *server.Server
	ts       *httptest.Server
	clients  []*serveClient
	iter     int
}

// serveClient is one closed-loop client and its inputs.
type serveClient struct {
	id     int
	tenant string
	base   string // server URL
	http   *http.Client
	traces []*serveTrace
}

// serveTrace is the input of one session.
type serveTrace struct {
	days   [][]trace.Record // records by submission day, then empty tail days
	bodies [][]byte         // JSON body of each day's submissions; nil for none
	ref    serveRef
}

// serveRef is the in-process session's outcome for the same inputs.
type serveRef struct {
	Report string // canonical report
	Events int    // engine events dispatched
}

func setupServe(seed int64, tr *tracer) (instance, error) {
	return newServe(seed, tr, serveNodes, serveWeeks, serveSessions)
}

func newServe(seed int64, tr *tracer, nodes, weeks, sessions int) (*serveInst, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveInst{seed: seed, nodes: nodes, stateDir: dir}
	s.srv, err = server.New(server.Config{StateDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		s.close()
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{
			id: c, tenant: "bench" + strconv.Itoa(c), base: s.ts.URL,
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
		s.clients = append(s.clients, cl)
		for k := 0; k < sessions; k++ {
			recs, err := generate(tr, inputSeed(seed, "serve", strconv.Itoa(c), strconv.Itoa(k)), nodes, weeks, "W5")
			if err != nil {
				s.close()
				return nil, err
			}
			st := &serveTrace{days: byDay(recs)}
			if st.bodies, err = encodeDays(st.days); err != nil {
				s.close()
				return nil, err
			}
			cl.traces = append(cl.traces, st)
		}
	}
	return s, nil
}

// wireJob is the JSON form of one submission in schedd's API.
type wireJob struct {
	ID         int    `json:"id"`
	Project    int    `json:"project,omitempty"`
	Class      string `json:"class"`
	Submit     int64  `json:"submit"`
	Size       int    `json:"size"`
	MinSize    int    `json:"min_size,omitempty"`
	Work       int64  `json:"work"`
	Estimate   int64  `json:"estimate,omitempty"`
	Setup      int64  `json:"setup,omitempty"`
	Notice     string `json:"notice,omitempty"`
	NoticeTime int64  `json:"notice_time,omitempty"`
	EstArrival int64  `json:"est_arrival,omitempty"`
}

var noticeNames = map[job.NoticeCategory]string{
	job.NoNotice: "no-notice", job.AccurateNotice: "accurate", job.ArriveEarly: "early", job.ArriveLate: "late",
}

// asSent returns the record schedd decodes from r's JSON form. The format
// reads a zero notice_time or est_arrival as "the submit time", so it cannot
// express an advance notice at t=0: such a notice arrives as none. The
// in-process reference is fed what the daemon receives.
func asSent(r trace.Record) trace.Record {
	if r.NoticeTime == 0 {
		r.NoticeTime = r.Submit
	}
	if r.EstArrival == 0 {
		r.EstArrival = r.Submit
	}
	return r
}

// byDay groups records by submission day and appends the empty tail days.
func byDay(recs []trace.Record) [][]trace.Record {
	var days [][]trace.Record
	for _, r := range recs {
		d := int(r.Submit / simtime.Day)
		for len(days) <= d {
			days = append(days, nil)
		}
		days[d] = append(days[d], r)
	}
	return append(days, make([][]trace.Record, serveTailDays)...)
}

// encodeDays encodes each day's records as a schedd submission body.
func encodeDays(days [][]trace.Record) ([][]byte, error) {
	out := make([][]byte, len(days))
	for d, recs := range days {
		if len(recs) == 0 {
			continue
		}
		jobs := make([]wireJob, len(recs))
		for i, r := range recs {
			jobs[i] = wireJob{
				ID: r.ID, Project: r.Project, Class: r.Class.String(), Submit: r.Submit,
				Size: r.Size, MinSize: r.MinSize, Work: r.Work, Estimate: r.Estimate, Setup: r.Setup,
				Notice: noticeNames[r.Notice], NoticeTime: r.NoticeTime, EstArrival: r.EstArrival,
			}
		}
		b, err := json.Marshal(jobs)
		if err != nil {
			return nil, err
		}
		out[d] = b
	}
	return out, nil
}

// attachSpy records the engine a session attaches its mechanism to.
type attachSpy struct {
	sim.Mechanism
	e *sim.Engine
}

func (a *attachSpy) Attach(e *sim.Engine) {
	a.e = e
	a.Mechanism.Attach(e)
}

// prepare replays each session's day slices through an in-process session
// built like the daemon builds one.
func (s *serveInst) prepare() error {
	lossy, total := 0, 0
	for _, c := range s.clients {
		for _, st := range c.traces {
			for _, recs := range st.days {
				for _, r := range recs {
					total++
					if asSent(r) != r {
						lossy++
					}
				}
			}
		}
	}
	if lossy > 0 {
		warn(fmt.Errorf("serve: %d of %d records carry a notice or arrival estimate at t=0, which schedd's job format cannot express; they are sent without it", lossy, total))
	}
	for _, c := range s.clients {
		refs, err := cached(fmt.Sprintf("serve-%d-%d-%d", s.nodes, len(c.traces), c.id), s.seed, func() ([]serveRef, error) {
			var refs []serveRef
			for _, st := range c.traces {
				ref, err := st.inProcess(s.nodes)
				if err != nil {
					return nil, err
				}
				refs = append(refs, ref)
			}
			return refs, nil
		})
		if err != nil {
			return err
		}
		for k, st := range c.traces {
			st.ref = refs[k]
		}
	}
	return nil
}

func (st *serveTrace) inProcess(nodes int) (serveRef, error) {
	mech, err := registry.NewScheduler("CUA&SPAA", registry.SchedulerConfig{DirectedReturn: true})
	if err != nil {
		return serveRef{}, err
	}
	spy := &attachSpy{Mechanism: mech}
	sess, err := hybridsched.NewSession(hybridsched.WithNodes(nodes), hybridsched.WithPolicy("fcfs"),
		hybridsched.WithScheduler(spy))
	if err != nil {
		return serveRef{}, err
	}
	defer sess.Close()
	for _, recs := range st.days {
		for _, r := range recs {
			if err := sess.Submit(asSent(r)); err != nil {
				return serveRef{}, err
			}
		}
		if err := sess.RunUntil(sess.Now() + simtime.Day); err != nil {
			return serveRef{}, err
		}
	}
	b, err := simtest.ReportJSON(sess.Report())
	return serveRef{Report: string(b), Events: spy.e.DispatchedCount()}, err
}

func (s *serveInst) close() {
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	os.RemoveAll(s.stateDir)
}

func (s *serveInst) iterate(m *meter, tr *tracer) (iteration, error) {
	s.iter++
	runs := make([]clientRun, len(s.clients))
	var wg sync.WaitGroup
	m.begin()
	for i, c := range s.clients {
		runs[i].tr = tr.child()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, st := range c.traces {
				id := fmt.Sprintf("c%d-s%d-i%d", c.id, k, s.iter)
				if s.session(c, st, id, &runs[i]) {
					runs[i].ids = append(runs[i].ids, id)
				}
			}
		}()
	}
	wg.Wait()
	m.end()
	it := iteration{live: s.srv}
	for i, r := range runs {
		for _, st := range s.clients[i].traces {
			it.events += st.ref.Events
		}
		it.latencyMS = append(it.latencyMS, r.latencyMS...)
		it.attempted += r.attempted
		it.failed += r.failed
		if tr != nil {
			tr.merge(r.tr)
			for _, b := range r.ckptBytes {
				tr.sample("snapshot.checkpoint_bytes", b)
			}
		}
	}
	tr.add("eventq.pops", float64(it.events))
	it.counts = map[string]int64{"requests": int64(len(it.latencyMS))}
	it.after = func() {
		for i, c := range s.clients {
			for _, id := range runs[i].ids {
				if err := c.call("DELETE", "/v1/sessions/"+id, nil, nil); err != nil {
					warn(fmt.Errorf("serve: delete session: %w", err))
				}
			}
		}
	}
	return it, nil
}

// clientRun is one client's share of an iteration.
type clientRun struct {
	latencyMS []float64
	attempted int
	failed    int
	tr        *tracer
	ckptBytes []float64
	ids       []string // sessions created
}

// session drives one session from creation to its report and reports
// whether it was created.
func (s *serveInst) session(c *serveClient, st *serveTrace, id string, r *clientRun) bool {
	tr := r.tr
	do := func(route, method, path string, body []byte, out any) bool {
		sp := tr.begin("server." + route)
		t0 := time.Now()
		err := c.call(method, path, body, out)
		r.latencyMS = append(r.latencyMS, float64(time.Since(t0))/1e6)
		tr.end(sp)
		r.attempted++
		if err != nil {
			r.failed++
			tr.add("server.non2xx", 1)
			warn(fmt.Errorf("serve: %s %s: %w", method, path, err))
			return false
		}
		return true
	}
	create, _ := json.Marshal(map[string]any{"tenant": c.tenant, "id": id, "mechanism": "CUA&SPAA", "nodes": s.nodes})
	if !do("create", "POST", "/v1/sessions", create, nil) {
		return false
	}
	base := "/v1/sessions/" + id
	for d, body := range st.bodies {
		if body != nil && !do("jobs", "POST", base+"/jobs", body, nil) {
			return true
		}
		if !do("advance", "POST", base+"/advance", []byte(`{"hours":24}`), nil) {
			return true
		}
		if (d+1)%serveCkptEvery == 0 {
			if !do("checkpoint", "POST", base+"/checkpoint", nil, nil) {
				return true
			}
			if tr != nil {
				if fi, err := os.Stat(filepath.Join(s.stateDir, c.tenant+"--"+id+".snap")); err == nil {
					r.ckptBytes = append(r.ckptBytes, float64(fi.Size()))
				}
			}
		}
	}
	var rep hybridsched.Report
	if !do("report", "GET", base+"/report", nil, &rep) {
		return true
	}
	r.attempted++
	if got, err := simtest.ReportJSON(rep); err != nil || string(got) != st.ref.Report {
		r.failed++
		mismatch("serve-"+id, got, []byte(st.ref.Report))
	}
	return true
}

// call sends one request and decodes a 2xx reply into out (when non-nil).
// Any other status is an error.
func (c *serveClient) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}
