package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"nocemu/internal/monitor"
	"nocemu/internal/platform"
)

// buildTimed builds cfg n times back to back, after one full collection,
// and returns the last platform and each build's CPU time in seconds.
func buildTimed(cfg platform.Config, n int, r *report) (*platform.Platform, []float64, error) {
	var p *platform.Platform
	var ds []float64
	runtime.GC()
	for i := 0; i < n; i++ {
		if p != nil {
			p.Close()
			p = nil
		}
		t0 := cpuNow()
		q, err := platform.Build(cfg)
		d := cpuNow() - t0
		r.op("build", err)
		if err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", cfg.Name, err)
		}
		p = q
		ds = append(ds, d.Seconds())
	}
	return p, ds, nil
}

// warmUp runs warmup cycles and returns the emulated cycles per CPU
// second seen over their second half.
func warmUp(p *platform.Platform, warmup uint64) float64 {
	p.RunCycles(warmup / 2)
	t0 := cpuNow()
	p.RunCycles(warmup - warmup/2)
	return float64(warmup-warmup/2) / (cpuNow() - t0).Seconds()
}

// runWindows sizes a window so that n of them fill budget at the given
// rate, runs the n windows after a full collection, and returns each
// window's emulated cycles per CPU second. between, when not nil, runs
// after every window, untimed by it, so that other samples of the run
// are spread over the same stretch of time as the windows.
func runWindows(p *platform.Platform, rate float64, budget time.Duration, n int, r *report, between func() error) ([]float64, error) {
	window := uint64(rate*budget.Seconds()/float64(n)/100) * 100
	if window < 100 {
		window = 100
	}
	runtime.GC()
	rates := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := cpuNow()
		p.RunCycles(window)
		rates = append(rates, float64(window)/(cpuNow()-t).Seconds())
		r.op("window", nil)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	lo, mid, hi := quartiles(rates)
	r.note("windows %d x %d cycles: rate quartiles %.6g %.6g %.6g cycles/s", n, window, lo, mid, hi)
	return rates, nil
}

// readout runs one bus-pulled monitor readout of p into w. A panic inside
// the monitor is returned as an error, so a failing readout is counted as
// a failed operation instead of ending the run.
func readout(w io.Writer, p *platform.Platform) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("monitor readout panicked: %v", v)
		}
	}()
	return monitor.WriteJSON(w, p)
}

// checkFlits records the conservation check on p, drains it, and records
// the drain check.
func checkFlits(p *platform.Platform, r *report) {
	t := p.Totals()
	var queued uint64
	for _, tg := range p.TGs() {
		queued += uint64(tg.Stats().Injector.QueuedFlits)
	}
	r.check("conservation", checkConservation(t.FlitsSent, queued, t.FlitsReceived, p.Pool().Live()))
	p.Drain()
	r.check("drained", checkDrained(p.Pool().Live()))
}
