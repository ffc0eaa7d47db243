package main

import (
	"fmt"
	"runtime"

	"nocemu/internal/dse"
	"nocemu/internal/jsonio"
	"nocemu/internal/serve"
)

// probeSize sizes the traced co-simulation measurements. The cosim
// workload runs the full probe; paper and mesh1k run the small one, so
// that every traced run reports the dse, serve and jsonio layers.
type probeSize struct {
	opens    int                         // cold opens on fresh managers
	sessions int                         // scripted sessions on one manager
	sweep    func(dse.Config) dse.Config // narrows the round's sweep
}

// probeFull is the cosim workload's probe: its sessions scale with the
// run's length. probeSmall is fixed.
func probeFull(o options) probeSize {
	return probeSize{opens: 21, sessions: 6 * o.seconds, sweep: func(c dse.Config) dse.Config { return c }}
}

var probeSmall = probeSize{opens: 3, sessions: 6, sweep: onePoint}

// serveOps maps each traced operation span to its metric.
var serveOps = []struct{ span, metric string }{
	{"serve.open_cold", "serve.open_cold_ms"},
	{"serve.open_warm", "serve.open_warm_ms"},
	{"serve.inject", "serve.inject_ms"},
	{"serve.step", "serve.step_ms"},
	{"serve.xfer", "serve.xfer_ms"},
	{"serve.flow", "serve.flow_ms"},
	{"serve.stats", "serve.stats_ms"},
	{"serve.park", "serve.park_ms"},
	{"serve.resume", "serve.resume_ms"},
	{"serve.close", "serve.close_ms"},
}

// cosimProbe runs cold opens, one sweep and scripted sessions with spans
// around the protocol codec and each Manager.Dispatch, and fills the dse,
// serve and jsonio metrics.
func cosimProbe(o options, r *report, t *tracer, ps probeSize) error {
	var ck cosimChecks
	gen := newSessionGen(o.seed)
	for i := 0; i < ps.opens; i++ {
		runtime.GC()
		if _, err := coldOpen(gen.sp, fmt.Sprintf("cold%d", i), t, r); err != nil {
			return err
		}
	}

	cfg := ps.sweep(sweepConfig(o.seed))
	var res *dse.Result
	if _, err := t.do("dse.sweep", func() (err error) {
		res, err = sweep(cfg, r, &ck)
		return err
	}); err != nil {
		return err
	}
	r.set("dse.cache_hits", float64(res.CacheHits))

	m := serve.NewManager(serve.Options{Workers: serveWorkers})
	for i := 0; i < ps.sessions; i++ {
		tr, err := tracedSession(t, m, gen.next(), i == 0, r, &ck)
		if err != nil {
			return err
		}
		if i == 1 {
			ck.firstSessionT = tr
		}
	}
	st := m.Stats()
	if err := m.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	r.set("serve.warm_hits", float64(st.WarmHits))
	r.check("sessions-closed", checkSessionsClosed(st))
	ck.record(r)

	for _, op := range serveOps {
		ds := t.durations(op.span)
		if len(ds) == 0 {
			return fmt.Errorf("no %s span was recorded", op.span)
		}
		r.set(op.metric, medianMs(ds))
	}
	r.set("jsonio.decode_us", medianMs(t.durations("jsonio.decode"))*1e3)
	r.set("jsonio.encode_us", medianMs(t.durations("jsonio.encode"))*1e3)
	return nil
}

// tracedSession serves one session's requests the way the stdio
// transport does — decode the frame, dispatch it, encode the response —
// with a span around each step. cold marks the manager's first session,
// whose open builds the platform and runs the warm-up.
func tracedSession(t *tracer, m *serve.Manager, reqs []jsonio.ServeRequest, cold bool, r *report, ck *cosimChecks) (*transcript, error) {
	tr := &transcript{}
	id := t.begin("client.session")
	defer t.end(id)
	for _, req := range reqs {
		frame := jsonio.EncodeServeRequest(req)
		var dreq jsonio.ServeRequest
		if _, err := t.do("jsonio.decode", func() (err error) {
			dreq, err = jsonio.DecodeServeRequest(frame)
			return err
		}); err != nil {
			return nil, fmt.Errorf("decode %s: %w", req.Op, err)
		}
		name := "serve." + req.Op
		if req.Op == jsonio.OpOpen {
			name = "serve.open_warm"
			if cold {
				name = "serve.open_cold"
			}
		}
		var resp jsonio.ServeResponse
		t.do(name, func() error { resp = m.Dispatch(dreq); return nil })
		var line []byte
		t.do("jsonio.encode", func() error { line = jsonio.EncodeServeResponse(resp); return nil })
		tr.reqs.Write(frame)
		tr.reqs.WriteByte('\n')
		tr.resps.Write(line)
		tr.resps.WriteByte('\n')
		ck.judge(req, resp, r)
	}
	return tr, nil
}

func tracedCosim(o options, r *report, t *tracer) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _, err := traceLayers(t, r, layerPlan{
		config:   cosimConfig(o.seed),
		reps:     9,
		forks:    4,
		warmup:   cosimWarmup,
		window:   o.budget() / 2,
		busReps:  200,
		readouts: 20,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	checkFlits(p, r)
	if err := cosimProbe(o, r, t, probeFull(o)); err != nil {
		return err
	}
	runtimeLayer(t, r, &before)
	return nil
}
