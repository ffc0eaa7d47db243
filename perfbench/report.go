package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit. The tables below are
// what BENCHMARK.json at the repository root declares; a
// test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd lists what an untraced run reports: every workload reports all
// of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cycles_per_s", "1/s"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists what a traced run reports: every workload reports all of
// them, measured on its own platform where the layer applies to it and on
// the co-simulation probe where it does not (see README.md).
var perLayer = []metricDef{
	{"topology.gen_s", "s"},
	{"routing.table_s", "s"},
	{"routing.validate_s", "s"},
	{"routing.cdg_s", "s"},
	{"routing.alloc_mb", "MB"},
	{"platform.build_s", "s"},
	{"platform.attach_s", "s"},
	{"platform.build_alloc_mb", "MB"},
	{"platform.fork_ms", "ms"},
	{"engine.allocs_per_kcycle", "1/kcycle"},
	{"engine.parks_per_kcycle", "1/kcycle"},
	{"engine.wakes_per_kcycle", "1/kcycle"},
	{"engine.ff_cycles_per_kcycle", "1/kcycle"},
	{"bus.read_ns", "ns"},
	{"state.snapshot_ms", "ms"},
	{"state.restore_ms", "ms"},
	{"state.snapshot_kb", "kB"},
	{"dse.point_build_ms", "ms"},
	{"dse.point_warmup_ms", "ms"},
	{"dse.point_measure_ms", "ms"},
	{"dse.cache_hits", "count"},
	{"serve.open_cold_ms", "ms"},
	{"serve.open_warm_ms", "ms"},
	{"serve.inject_ms", "ms"},
	{"serve.step_ms", "ms"},
	{"serve.xfer_ms", "ms"},
	{"serve.flow_ms", "ms"},
	{"serve.stats_ms", "ms"},
	{"serve.park_ms", "ms"},
	{"serve.resume_ms", "ms"},
	{"serve.close_ms", "ms"},
	{"serve.warm_hits", "count"},
	{"jsonio.decode_us", "us"},
	{"jsonio.encode_us", "us"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"self.topology_s", "s"},
	{"self.routing_s", "s"},
	{"self.platform_s", "s"},
	{"self.engine_s", "s"},
	{"self.bus_s", "s"},
	{"self.state_s", "s"},
	{"self.dse_s", "s"},
	{"self.serve_s", "s"},
	{"self.jsonio_s", "s"},
	{"trace.setup_s", "s"},
	{"trace.setup_self_sum_s", "s"},
	{"trace.overhead_s", "s"},
}

// opCount tallies one kind of operation.
type opCount struct {
	kind              string
	attempted, failed int
	firstErr          error
}

// report collects one run's operations, checks and metrics.
type report struct {
	ops    []*opCount
	checks []checkOutcome
	values map[string]float64
	notes  []string
}

type checkOutcome struct {
	name string
	err  error
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op records one attempted operation of the given kind and whether it
// failed.
func (r *report) op(kind string, err error) {
	var c *opCount
	for _, o := range r.ops {
		if o.kind == kind {
			c = o
		}
	}
	if c == nil {
		c = &opCount{kind: kind}
		r.ops = append(r.ops, c)
	}
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// check records the outcome of one correctness check.
func (r *report) check(name string, err error) {
	r.checks = append(r.checks, checkOutcome{name, err})
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// note records an informational figure printed before the result line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *report) totals() (attempted, failed int) {
	for _, o := range r.ops {
		attempted += o.attempted
		failed += o.failed
	}
	return attempted, failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the run's operations, checks and notes as comment lines,
// then the result object as the last line. It fails if a declared metric
// was not measured.
func (r *report) write(w io.Writer, defs []metricDef) error {
	line := resultLine{Correct: r.correct(), Metrics: map[string]metricValue{}}
	line.Attempted, line.Failed = r.totals()
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	for _, o := range r.ops {
		fmt.Fprintf(w, "# ops %-12s attempted=%d failed=%d", o.kind, o.attempted, o.failed)
		if o.firstErr != nil {
			fmt.Fprintf(w, " first error: %v", o.firstErr)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(w, "# check %s FAILED: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "# check %s ok\n", c.name)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Fprintf(w, "# metric %-28s %.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
