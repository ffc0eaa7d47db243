package main

import (
	"bytes"
	"runtime"

	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

// The mesh1k workload: a 32x32 mesh with one uniform terminal per node at
// 0.02 flits/cycle (platform.NetConfig). Set-up is dominated by the build;
// at this light load, per-element gating does most of the run.
const (
	meshSide      = 32
	meshInjection = 0.02
	meshPacketLen = 4
	meshRounds    = 3
	meshWarmup    = 1000
	meshWindows   = 7 // per round
)

func meshConfig(seed uint64) func() (platform.Config, error) {
	return func() (platform.Config, error) {
		return platform.NetConfig(platform.NetOptions{
			Topo:         topology.Spec{Kind: "mesh", Param: map[string]int{"w": meshSide, "h": meshSide}},
			Workload:     "uniform",
			Injection:    meshInjection,
			PacketLen:    meshPacketLen,
			Seed:         derive(seed, 1),
			WorkloadSeed: derive(seed, 2),
		})
	}
}

func measureMesh(o options, r *report) error {
	cfg, err := meshConfig(o.seed)()
	if err != nil {
		return err
	}
	// Rounds of build, warm-up and windows spread the measured windows
	// over the whole run, so one busy spell of the shared host moves
	// fewer of them.
	var setups, rates []float64
	for round := 0; round < meshRounds; round++ {
		p, ds, err := buildTimed(cfg, 1, r)
		if err != nil {
			return err
		}
		setups = append(setups, ds...)
		rate := warmUp(p, meshWarmup)
		from := p.Totals()
		rs, err := runWindows(p, rate, o.budget()*9/10/meshRounds, meshWindows, r, nil)
		if err != nil {
			return err
		}
		rates = append(rates, rs...)
		to := p.Totals()
		r.check("offered-load", checkOfferedLoad(to.PacketsOffered-from.PacketsOffered, meshPacketLen,
			len(p.TGs()), to.Cycles-from.Cycles, meshInjection))
		if round == meshRounds-1 {
			// The readout is attempted on every run. It fails today
			// (the monitor indexes topology links against the link
			// rows found on the bus, and most link devices are
			// unmapped at this size); it is counted as failed.
			var buf bytes.Buffer
			runtime.GC()
			rerr := readout(&buf, p)
			r.op("readout", rerr)
			if rerr == nil {
				_, serr := checkSummary(buf.Bytes())
				r.check("readout-sums", serr)
			}
		}
		checkFlits(p, r)
		p.Close()
	}
	r.set("setup_s", median(setups))
	r.set("cycles_per_s", median(rates))
	r.set("mem_peak_mb", peakRSSMB())
	return nil
}

func tracedMesh(o options, r *report, t *tracer) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	p, win, err := traceLayers(t, r, layerPlan{
		config:   meshConfig(o.seed),
		reps:     1,
		forks:    1,
		warmup:   meshWarmup,
		window:   o.budget() / 2,
		busReps:  5,
		readouts: 1,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	r.check("offered-load", checkOfferedLoad(win.to.PacketsOffered-win.from.PacketsOffered,
		meshPacketLen, len(p.TGs()), win.to.Cycles-win.from.Cycles, meshInjection))
	checkFlits(p, r)
	if err := cosimProbe(o, r, t, probeSmall); err != nil {
		return err
	}
	runtimeLayer(t, r, &before)
	return nil
}
