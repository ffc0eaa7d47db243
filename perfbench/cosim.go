package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"nocemu/internal/dse"
	"nocemu/internal/jsonio"
	"nocemu/internal/platform"
	"nocemu/internal/serve"
	"nocemu/internal/topology"
)

// The cosim workload: small 4x4 platforms used two ways. A fork-amortized
// dse.Sweep over topology x buffer depth x injection with seed forks, and
// one closed-loop client driving a serve.Manager over the JSONL protocol
// (serve.ServeStdio) with sessions modelled on scripts/serve_smoke.sh.
// Work is done in rounds of cosimOpens cold opens on fresh managers, one
// sweep and cosimSessions sessions.
const (
	cosimSide      = 4
	cosimTerminals = cosimSide * cosimSide
	cosimInjection = 0.1
	cosimWarmup    = 500
	cosimOpens     = 3 // cold opens per round
	cosimSessions  = 48
	cosimXfers     = 8
	// serveWorkers caps the manager's concurrently dispatched requests;
	// with one client it never binds, and it keeps the load to one core.
	serveWorkers = 1
)

// sessionPlatform is the platform every session of a run opens: a 4x4
// mesh with uniform background load.
func sessionPlatform(seed uint64) jsonio.ServePlatform {
	return jsonio.ServePlatform{
		Topo:         fmt.Sprintf("mesh:w=%d,h=%d", cosimSide, cosimSide),
		Workload:     "uniform",
		Injection:    cosimInjection,
		Seed:         derive(seed, 1),
		WorkloadSeed: derive(seed, 2),
		Warmup:       cosimWarmup,
	}
}

// cosimConfig is the session platform's shape as a plain platform
// configuration, for the traced layer measurements.
func cosimConfig(seed uint64) func() (platform.Config, error) {
	return func() (platform.Config, error) {
		return platform.NetConfig(platform.NetOptions{
			Topo:         topology.Spec{Kind: "mesh", Param: map[string]int{"w": cosimSide, "h": cosimSide}},
			Workload:     "uniform",
			Injection:    cosimInjection,
			Seed:         derive(seed, 1),
			WorkloadSeed: derive(seed, 2),
		})
	}
}

// sweepConfig is the sweep of every round: 4x4 mesh and torus x buffer
// depths 2, 4, 8 x injections 0.05, 0.1, 0.2 (18 points), 4 seed forks
// each, one pool worker, no journal and no cache directory.
func sweepConfig(seed uint64) dse.Config {
	return dse.Config{
		Name: "perfbench",
		Axes: dse.Axes{
			Topos: []topology.Spec{
				{Kind: "mesh", Param: map[string]int{"w": cosimSide, "h": cosimSide}},
				{Kind: "torus", Param: map[string]int{"w": cosimSide, "h": cosimSide}},
			},
			Workloads:  []string{"uniform"},
			BufDepths:  []int{2, 4, 8},
			Injections: []float64{0.05, 0.1, 0.2},
		},
		Forks:         4,
		WarmupCycles:  500,
		MeasureCycles: 1000,
		Seed:          derive(seed, 3),
		WorkloadSeed:  derive(seed, 4),
		Workers:       1,
	}
}

// sessionScript returns one session's requests: open, inject and step, a
// flow query, a run of xfer oracle calls, stats, park and resume (in
// memory), two more xfers, a step, stats and close. Endpoint pairs are
// drawn from rng; source i sits at mesh node i and sink 16+j at node j.
func sessionScript(sid string, sp jsonio.ServePlatform, rng *rand.Rand, id *uint64) []jsonio.ServeRequest {
	var reqs []jsonio.ServeRequest
	add := func(q jsonio.ServeRequest) {
		*id++
		q.V, q.ID, q.Sid = jsonio.ServeVersion, *id, sid
		reqs = append(reqs, q)
	}
	pair := func() (uint16, uint16) {
		s := rng.Intn(cosimTerminals)
		d := rng.Intn(cosimTerminals - 1)
		if d >= s {
			d++
		}
		return uint16(s), uint16(cosimTerminals + d)
	}
	spc := sp
	add(jsonio.ServeRequest{Op: jsonio.OpOpen, Platform: &spc})
	s, d := pair()
	add(jsonio.ServeRequest{Op: jsonio.OpInject, Src: s, Dst: d, Bytes: 128, Count: 4})
	add(jsonio.ServeRequest{Op: jsonio.OpStep, Cycles: 400})
	add(jsonio.ServeRequest{Op: jsonio.OpFlow, Src: s, Dst: d})
	for i := 0; i < cosimXfers; i++ {
		s, d := pair()
		add(jsonio.ServeRequest{Op: jsonio.OpXfer, Src: s, Dst: d, Bytes: 64})
	}
	add(jsonio.ServeRequest{Op: jsonio.OpStats})
	add(jsonio.ServeRequest{Op: jsonio.OpPark})
	add(jsonio.ServeRequest{Op: jsonio.OpResume})
	for i := 0; i < 2; i++ {
		s, d := pair()
		add(jsonio.ServeRequest{Op: jsonio.OpXfer, Src: s, Dst: d, Bytes: 64})
	}
	add(jsonio.ServeRequest{Op: jsonio.OpStep, Cycles: 200})
	add(jsonio.ServeRequest{Op: jsonio.OpStats})
	add(jsonio.ServeRequest{Op: jsonio.OpClose})
	return reqs
}

// sessionGen hands out the sessions of one run in order.
type sessionGen struct {
	sp  jsonio.ServePlatform
	rng *rand.Rand
	n   int
	id  uint64
}

func newSessionGen(seed uint64) *sessionGen {
	return &sessionGen{sp: sessionPlatform(seed), rng: rand.New(rand.NewSource(int64(derive(seed, 5))))}
}

func (g *sessionGen) next() []jsonio.ServeRequest {
	g.n++
	return sessionScript(fmt.Sprintf("s%05d", g.n), g.sp, g.rng, &g.id)
}

// transcript is one session's request frames and response lines as they
// crossed the protocol, newline-terminated.
type transcript struct{ reqs, resps bytes.Buffer }

// sessionResult is what one session returned.
type sessionResult struct {
	latencies []float64 // seconds, per request
	cycles    uint64    // emulated cycles the session advanced
	tr        transcript
}

// cosimChecks keeps the first failure of each check repeated over many
// requests and sweeps.
type cosimChecks struct {
	xfers         int
	xfer, rows    error
	sweeps        int
	front         error
	firstSessionT *transcript
}

// record adds the accumulated checks to the report.
func (ck *cosimChecks) record(r *report) {
	if ck.xfers == 0 && ck.xfer == nil {
		ck.xfer = fmt.Errorf("no transfer was checked")
	}
	if ck.sweeps == 0 && ck.front == nil {
		ck.front = fmt.Errorf("no sweep was checked")
	}
	r.check("xfer-latency", ck.xfer)
	r.check("sweep-rows", ck.rows)
	r.check("sweep-front", ck.front)
	if ck.firstSessionT != nil {
		replay(ck.firstSessionT, r)
	} else {
		r.check("replay", fmt.Errorf("no session was recorded"))
	}
}

// judge checks one response against its request and records the request
// as an operation.
func (ck *cosimChecks) judge(req jsonio.ServeRequest, resp jsonio.ServeResponse, r *report) {
	var err error
	if !resp.OK {
		err = fmt.Errorf("%s %s: %s", req.Op, req.Sid, resp.Err)
	}
	r.op("request", err)
	if err == nil && req.Op == jsonio.OpXfer {
		ck.xfers++
		hops := meshHops(int(req.Src), int(req.Dst)-cosimTerminals, cosimSide)
		if xerr := checkXfer(resp.Delivered, resp.Latency, hops); xerr != nil && ck.xfer == nil {
			ck.xfer = fmt.Errorf("%s %d->%d: %v", req.Sid, req.Src, req.Dst, xerr)
		}
	}
}

// stdioClient is one closed-loop client of a manager served over the JSONL
// stdio transport through in-memory pipes: it sends a frame only after the
// previous response has arrived.
type stdioClient struct {
	reqW *io.PipeWriter
	resp *bufio.Reader
	done chan error
}

func startStdio(m *serve.Manager) *stdioClient {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	c := &stdioClient{reqW: reqW, resp: bufio.NewReader(respR), done: make(chan error, 1)}
	go func() {
		err := serve.ServeStdio(m, reqR, respW)
		reqR.CloseWithError(err)
		respW.CloseWithError(err)
		c.done <- err
	}()
	return c
}

// call sends one newline-terminated frame and returns the response line.
func (c *stdioClient) call(frame []byte) ([]byte, error) {
	if _, err := c.reqW.Write(frame); err != nil {
		return nil, err
	}
	return c.resp.ReadBytes('\n')
}

// stop ends the transport and waits for the server loop to return.
func (c *stdioClient) stop() error {
	c.reqW.Close()
	return <-c.done
}

// runSession drives one session over the client, timing each request from
// frame sent to response decoded.
func runSession(c *stdioClient, reqs []jsonio.ServeRequest, r *report, ck *cosimChecks) (sessionResult, error) {
	var sr sessionResult
	var first, last uint64
	for i, req := range reqs {
		frame := append(jsonio.EncodeServeRequest(req), '\n')
		t0 := time.Now()
		line, err := c.call(frame)
		var resp jsonio.ServeResponse
		if err == nil {
			err = json.Unmarshal(line, &resp)
		}
		sr.latencies = append(sr.latencies, time.Since(t0).Seconds())
		if err != nil {
			return sr, fmt.Errorf("%s %s: %w", req.Op, req.Sid, err)
		}
		sr.tr.reqs.Write(frame)
		sr.tr.resps.Write(line)
		ck.judge(req, resp, r)
		if i == 0 {
			first = resp.Cycle
		}
		if resp.Cycle > last {
			last = resp.Cycle
		}
	}
	sr.cycles = last - first
	return sr, nil
}

// replay serves a recorded session's frames on a fresh manager and checks
// that the responses are byte-identical.
func replay(tr *transcript, r *report) {
	m := serve.NewManager(serve.Options{Workers: serveWorkers})
	var out bytes.Buffer
	err := serve.ServeStdio(m, bytes.NewReader(tr.reqs.Bytes()), &out)
	if serr := m.Shutdown(); err == nil {
		err = serr
	}
	if err == nil {
		err = checkReplay(out.Bytes(), tr.resps.Bytes())
	}
	r.check("replay", err)
}

// coldOpen opens one session on a fresh manager, closes it and returns the
// open's dispatch time: CPU time untraced, the span's wall time traced.
func coldOpen(sp jsonio.ServePlatform, sid string, t *tracer, r *report) (time.Duration, error) {
	m := serve.NewManager(serve.Options{Workers: serveWorkers})
	spc := sp
	open := jsonio.ServeRequest{V: jsonio.ServeVersion, ID: 1, Op: jsonio.OpOpen, Sid: sid, Platform: &spc}
	var resp jsonio.ServeResponse
	var d time.Duration
	if t != nil {
		d, _ = t.do("serve.open_cold", func() error { resp = m.Dispatch(open); return nil })
	} else {
		t0 := cpuNow()
		resp = m.Dispatch(open)
		d = cpuNow() - t0
	}
	var err error
	if !resp.OK {
		err = fmt.Errorf("cold open: %s", resp.Err)
	}
	r.op("open", err)
	cl := m.Dispatch(jsonio.ServeRequest{V: jsonio.ServeVersion, ID: 2, Op: jsonio.OpClose, Sid: sid})
	if err == nil && !cl.OK {
		err = fmt.Errorf("close after cold open: %s", cl.Err)
	}
	if serr := m.Shutdown(); err == nil {
		err = serr
	}
	return d, err
}

// sweep runs one sweep, checks it and records its points.
func sweep(cfg dse.Config, r *report, ck *cosimChecks) (*dse.Result, error) {
	res, err := dse.Sweep(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	ck.sweeps++
	rowErr := checkRows(res.Rows, res.Evaluated, cfg.Forks)
	for i := 0; i < res.Evaluated; i++ {
		r.op("point", rowErr)
	}
	if rowErr != nil && ck.rows == nil {
		ck.rows = rowErr
	}
	if err := checkFront(res.Points, res.Front); err != nil && ck.front == nil {
		ck.front = err
	}
	return res, nil
}

// sweepCycles is the emulated cycles a sweep ran: one warm-up per point
// and one measured window per fork.
func sweepCycles(cfg dse.Config, res *dse.Result) uint64 {
	return uint64(res.Evaluated) * (cfg.WarmupCycles + uint64(cfg.Forks)*cfg.MeasureCycles)
}

func measureCosim(o options, r *report) error {
	var ck cosimChecks
	m := serve.NewManager(serve.Options{Workers: serveWorkers})
	c := startStdio(m)
	err := cosimRounds(o, newSessionGen(o.seed), c, r, &ck)
	if serr := c.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stdio transport: %w", serr)
	}
	st := m.Stats()
	if serr := m.Shutdown(); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return err
	}
	r.check("sessions-closed", checkSessionsClosed(st))
	ck.record(r)
	r.set("mem_peak_mb", peakRSSMB())
	return nil
}

// cosimRounds warms the manager up, then runs rounds of cosimOpens cold
// opens, one sweep and cosimSessions sessions until the run's budget has
// passed. The cold opens are the set-up samples; taking a few every round
// spreads them over the whole run.
func cosimRounds(o options, gen *sessionGen, c *stdioClient, r *report, ck *cosimChecks) error {
	scfg := sweepConfig(o.seed)
	// Warm-up: a one-point sweep and one session, whose open is the
	// manager's cold open.
	if _, err := sweep(onePoint(scfg), r, ck); err != nil {
		return err
	}
	if _, err := runSession(c, gen.next(), r, ck); err != nil {
		return err
	}
	runtime.GC()

	var opens, rates, ppm, rps, lat []float64
	points := 0
	start := time.Now()
	for time.Since(start) < o.budget() {
		for i := 0; i < cosimOpens; i++ {
			runtime.GC()
			d, err := coldOpen(gen.sp, fmt.Sprintf("cold%d", len(opens)), nil, r)
			if err != nil {
				return err
			}
			opens = append(opens, d.Seconds())
		}
		runtime.GC()
		c0 := cpuNow()
		res, err := sweep(scfg, r, ck)
		if err != nil {
			return err
		}
		sweepD := cpuNow() - c0
		points = res.Evaluated
		cycles := sweepCycles(scfg, res)
		t1 := time.Now()
		nreq := 0
		for i := 0; i < cosimSessions; i++ {
			sr, err := runSession(c, gen.next(), r, ck)
			if err != nil {
				return err
			}
			if ck.firstSessionT == nil {
				ck.firstSessionT = &sr.tr
			}
			cycles += sr.cycles
			nreq += len(sr.latencies)
			lat = append(lat, sr.latencies...)
		}
		sessD := time.Since(t1)
		rates = append(rates, float64(cycles)/(cpuNow()-c0).Seconds())
		ppm = append(ppm, float64(res.Evaluated)/sweepD.Minutes())
		rps = append(rps, float64(nreq)/sessD.Seconds())
	}
	r.set("setup_s", median(opens))
	r.set("cycles_per_s", median(rates))
	r.note("rounds %d, each one sweep of %d points x %d forks and %d sessions", len(rates), points, scfg.Forks, cosimSessions)
	r.note("points_per_min %.6g 1/min of CPU time (median over sweeps)", median(ppm))
	r.note("req_per_s %.6g 1/s of wall time (median over rounds)", median(rps))
	r.note("req_p50_ms %.6g ms, req_p99_ms %.6g ms of wall time over %d requests",
		percentile(lat, 50)*1e3, percentile(lat, 99)*1e3, len(lat))
	return nil
}

// checkSessionsClosed verifies that every session opened was closed (a
// close fails when the session leaked flits) and none was left parked.
func checkSessionsClosed(st serve.Stats) error {
	if st.LiveSessions != 0 || st.ParkedSessions != 0 || st.Opened != st.Closed {
		return fmt.Errorf("%d opened, %d closed, %d live, %d parked",
			st.Opened, st.Closed, st.LiveSessions, st.ParkedSessions)
	}
	return nil
}

// onePoint narrows a sweep to its first structural point.
func onePoint(cfg dse.Config) dse.Config {
	a := &cfg.Axes
	a.Topos, a.BufDepths, a.Injections = a.Topos[:1], a.BufDepths[:1], a.Injections[:1]
	return cfg
}
