package main

import (
	"bytes"
	"runtime"

	"nocemu/internal/platform"
)

// The paper workload: the reference platform of the paper's evaluation
// (platform.PaperConfig defaults: 6 switches, 4 uniform generators at 45%
// load, two links loaded to 90%), built, run for a long window and read
// out over the bus.
const (
	paperWarmup            = 40000
	paperWindows           = 40
	paperBuildsPerWindow   = 3
	paperReadoutsPerWindow = 3
	paperHotLoad           = 0.90
	paperHotTol            = 0.01
)

func paperConfig(seed uint64) func() (platform.Config, error) {
	return func() (platform.Config, error) {
		return platform.PaperConfig(platform.PaperOptions{Seed: derive(seed, 1)})
	}
}

func measurePaper(o options, r *report) error {
	cfg, err := paperConfig(o.seed)()
	if err != nil {
		return err
	}
	p, setups, err := buildTimed(cfg, 1, r)
	if err != nil {
		return err
	}
	defer p.Close()

	// Between windows: more builds of the same configuration (set-up
	// samples) and readouts, so that every median covers the whole run.
	var buf bytes.Buffer
	var reports []float64
	sample := func() error {
		q, ds, err := buildTimed(cfg, paperBuildsPerWindow, r)
		if err != nil {
			return err
		}
		q.Close()
		setups = append(setups, ds...)
		for i := 0; i < paperReadoutsPerWindow; i++ {
			buf.Reset()
			t0 := cpuNow()
			err := readout(&buf, p)
			reports = append(reports, (cpuNow() - t0).Seconds())
			r.op("readout", err)
		}
		return nil
	}
	rates, err := runWindows(p, warmUp(p, paperWarmup), o.budget()*9/10, paperWindows, r, sample)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("cycles_per_s", median(rates))
	r.note("report_s %.6g s of CPU time (median of %d bus-pulled readouts)", median(reports), len(reports))
	checkPaper(p, buf.Bytes(), r)
	r.set("mem_peak_mb", peakRSSMB())
	return nil
}

// checkPaper checks the hot-link load, the readout and flit conservation,
// then drains the platform.
func checkPaper(p *platform.Platform, rd []byte, r *report) {
	a, b, err := p.PaperHotLinks()
	if err == nil {
		err = checkHotLinks(p.LinkLoads(), []int{a, b}, paperHotLoad, paperHotTol)
	}
	r.check("hot-links", err)
	_, err = checkSummary(rd)
	r.check("readout-sums", err)
	checkFlits(p, r)
}

func tracedPaper(o options, r *report, t *tracer) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _, err := traceLayers(t, r, layerPlan{
		config:   paperConfig(o.seed),
		reps:     9,
		forks:    4,
		warmup:   paperWarmup,
		window:   o.budget() / 2,
		busReps:  200,
		readouts: 20,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	var buf bytes.Buffer
	err = readout(&buf, p)
	r.op("readout", err)
	checkPaper(p, buf.Bytes(), r)
	if err := cosimProbe(o, r, t, probeSmall); err != nil {
		return err
	}
	runtimeLayer(t, r, &before)
	return nil
}
