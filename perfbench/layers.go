package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"nocemu/internal/bus"
	"nocemu/internal/platform"
	"nocemu/internal/regmap"
	"nocemu/internal/routing"
)

// memStats reads the runtime's exact allocation counters. It stops the
// world briefly, so it is called between spans only.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// heapAllocs returns the bytes allocated on the heap so far, the counter
// behind MemStats.TotalAlloc, read without stopping the world, so that it
// can be read inside the set-up span without adding a pause to it.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }

func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = millis(d)
	}
	return median(xs)
}

// layerPlan sizes the traced measurements of one workload's platform.
type layerPlan struct {
	config   func() (platform.Config, error)
	reps     int           // set-ups, snapshots and restores timed
	forks    int           // platforms one Fork call builds
	warmup   uint64        // cycles before the engine window
	window   time.Duration // CPU time the engine window is sized to fill
	busReps  int           // passes over every device's TYPE register
	readouts int           // monitor readouts attempted
}

// window is the platform totals around the traced engine window.
type window struct{ from, to platform.Totals }

// traceLayers measures the topology, routing, platform, engine, bus, state
// and dse-point layers on the plan's configuration. It returns the
// platform it leaves warmed up, for the workload's own checks, and the
// totals around the engine window.
func traceLayers(t *tracer, r *report, plan layerPlan) (*platform.Platform, window, error) {
	var win window
	// Set-up, untraced and traced in turn: the traced set-up is the same
	// calls inside spans, and the difference of the medians is the
	// tracing overhead.
	var plain, traced []float64
	var p *platform.Platform
	var lastSetup int
	var buildAlloc uint64
	for i := 0; i < plan.reps; i++ {
		runtime.GC()
		t0 := time.Now()
		cfg, err := plan.config()
		if err == nil {
			var q *platform.Platform
			q, err = platform.Build(cfg)
			if err == nil {
				q.Close()
			}
		}
		plain = append(plain, time.Since(t0).Seconds())
		r.op("build", err)
		if err != nil {
			return nil, win, err
		}
		if p != nil {
			p.Close()
			p = nil
		}
		runtime.GC()
		lastSetup = t.begin("setup")
		_, err = t.do("topology.gen", func() error {
			cfg, err = plan.config()
			return err
		})
		if err == nil {
			a0 := heapAllocs()
			_, err = t.do("platform.build", func() error {
				p, err = platform.Build(cfg)
				return err
			})
			buildAlloc = heapAllocs() - a0
		}
		traced = append(traced, t.end(lastSetup).Seconds())
		r.op("build", err)
		if err != nil {
			return nil, win, err
		}
	}
	cfg := p.Config()

	// Build stages on the same configuration, outside Build.
	runtime.GC()
	routeTable, err := t.do("platform.route_table", func() error {
		_, err := platform.RouteTable(cfg)
		return err
	})
	if err != nil {
		return nil, win, err
	}
	runtime.GC()
	var table *routing.Table
	a0 := memStats()
	tableD, err := t.do("routing.table", func() (err error) {
		table, err = routing.BuildTable(cfg.Topology)
		return err
	})
	if err != nil {
		return nil, win, err
	}
	validateD, err := t.do("routing.validate", func() error { return routing.Validate(cfg.Topology, table) })
	if err != nil {
		return nil, win, err
	}
	cdgD, err := t.do("routing.cdg", func() error { return routing.CheckDeadlockFree(cfg.Topology, table) })
	if err != nil {
		return nil, win, err
	}
	a1 := memStats()

	gen := t.durations("topology.gen")
	build := t.durations("platform.build")
	buildS := medianMs(build) / 1e3
	r.set("topology.gen_s", medianMs(gen)/1e3)
	r.set("routing.table_s", tableD.Seconds())
	r.set("routing.validate_s", validateD.Seconds())
	r.set("routing.cdg_s", cdgD.Seconds())
	r.set("routing.alloc_mb", mb(a1.TotalAlloc-a0.TotalAlloc))
	r.set("platform.build_s", buildS)
	r.set("platform.attach_s", buildS-routeTable.Seconds())
	r.set("platform.build_alloc_mb", mb(buildAlloc))

	setupS, plainS := median(traced), median(plain)
	overhead := setupS - plainS
	// The set-up span's own self time is what no layer span covers.
	var selfSum time.Duration
	for l, d := range selfTimes(t.spans, lastSetup) {
		if l != "setup" {
			selfSum += d
		}
	}
	last := t.durations("setup")
	lastS := last[len(last)-1].Seconds()
	r.set("trace.setup_s", setupS)
	r.set("trace.setup_self_sum_s", selfSum.Seconds())
	r.set("trace.overhead_s", overhead)
	r.check("setup-attribution", checkAttribution(lastS, selfSum.Seconds(), overhead))

	// Kernel: one window with a scheduling-event counter installed.
	cycles := uint64(warmUp(p, plan.warmup)*plan.window.Seconds()/100) * 100
	if cycles < 100 {
		cycles = 100
	}
	var sc schedCounter
	p.Engine().SetSchedTrace(&sc)
	runtime.GC()
	win.from = p.Totals()
	o0 := memStats()
	span := t.begin("engine.window")
	p.RunCycles(cycles)
	t.end(span)
	o1 := memStats()
	win.to = p.Totals()
	p.Engine().SetSchedTrace(nil)
	r.op("window", nil)
	k := float64(cycles) / 1000
	r.set("engine.allocs_per_kcycle", float64(o1.Mallocs-o0.Mallocs)/k)
	r.set("engine.parks_per_kcycle", float64(sc.parks)/k)
	r.set("engine.wakes_per_kcycle", float64(sc.wakes)/k)
	r.set("engine.ff_cycles_per_kcycle", float64(sc.ffCycles)/k)

	// Bus: every attached device's TYPE register.
	sys := p.System()
	atts := sys.Attachments()
	var perRead []float64
	for i := 0; i < plan.busReps; i++ {
		d, err := t.do("bus.read_all", func() error {
			for _, a := range atts {
				if _, err := sys.Read(bus.MakeAddr(a.Bus, a.Dev, regmap.RegType)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, win, fmt.Errorf("bus read: %w", err)
		}
		perRead = append(perRead, float64(d.Nanoseconds())/float64(len(atts)))
	}
	r.set("bus.read_ns", median(perRead))
	for i := 0; i < plan.readouts; i++ {
		_, err := t.do("monitor.readout", func() error { return readout(io.Discard, p) })
		r.op("readout", err)
	}

	// State: snapshot and restore of the warmed platform, and Fork.
	var snap []byte
	for i := 0; i < plan.reps; i++ {
		if _, err := t.do("state.snapshot", func() (err error) {
			snap, err = p.SnapshotBytes()
			return err
		}); err != nil {
			return nil, win, err
		}
		if _, err := t.do("state.restore", func() error { return p.RestoreBytes(snap) }); err != nil {
			return nil, win, err
		}
	}
	r.set("state.snapshot_ms", medianMs(t.durations("state.snapshot")))
	r.set("state.restore_ms", medianMs(t.durations("state.restore")))
	r.set("state.snapshot_kb", float64(len(snap))/1e3)
	runtime.GC()
	forkD, err := t.do("platform.fork", func() error {
		forks, err := p.Fork(plan.forks)
		for _, f := range forks {
			f.Close()
		}
		return err
	})
	r.op("fork", err)
	if err != nil {
		return nil, win, err
	}
	r.set("platform.fork_ms", millis(forkD)/float64(plan.forks))

	// One design point's stages, composed from the calls a sweep makes:
	// build, warm up and snapshot, then one fork's measured window and
	// totals, with the cosim sweep's cycle counts.
	runtime.GC()
	var pt *platform.Platform
	if _, err := t.do("dse.point_build", func() (err error) {
		pt, err = platform.Build(cfg)
		return err
	}); err != nil {
		return nil, win, err
	}
	sc0 := sweepConfig(0)
	t.do("dse.point_warmup", func() error {
		pt.RunCycles(sc0.WarmupCycles)
		pt.ResetStats()
		_, err := pt.SnapshotBytes()
		return err
	})
	t.do("dse.point_measure", func() error {
		pt.RunCycles(sc0.MeasureCycles)
		pt.Totals()
		return nil
	})
	pt.Close()
	r.op("point", nil)
	r.set("dse.point_build_ms", medianMs(t.durations("dse.point_build")))
	r.set("dse.point_warmup_ms", medianMs(t.durations("dse.point_warmup")))
	r.set("dse.point_measure_ms", medianMs(t.durations("dse.point_measure")))
	return p, win, nil
}

// checkAttribution verifies that the layer self times inside the set-up
// span add up to the span within the tracing overhead (and 1 ms of clock
// granularity).
func checkAttribution(setup, selfSum, overhead float64) error {
	if math.Abs(setup-selfSum) > math.Abs(overhead)+1e-3 {
		return fmt.Errorf("layer self times cover %.4fs of a %.4fs set-up (overhead %.4fs)", selfSum, setup, overhead)
	}
	return nil
}

// schedCounter counts kernel scheduling events.
type schedCounter struct{ parks, wakes, ffCycles uint64 }

func (c *schedCounter) SchedPark(cycle uint64, comp string) { c.parks++ }
func (c *schedCounter) SchedWake(cycle uint64, comp string) { c.wakes++ }
func (c *schedCounter) SchedFastForward(from, to uint64)    { c.ffCycles += to - from }

// runtimeLayer fills the Go runtime metrics from the statistics before and
// after the traced run, and the per-layer self times from its spans.
func runtimeLayer(t *tracer, r *report, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("runtime.alloc_mb", mb(after.TotalAlloc-before.TotalAlloc))
	self := selfTimes(t.spans, 0)
	for _, l := range []string{"topology", "routing", "platform", "engine", "bus", "state", "dse", "serve", "jsonio"} {
		r.set("self."+l+"_s", self[l].Seconds())
	}
}
