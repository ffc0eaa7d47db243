// Command perfbench is the nocemu benchmark. One process runs one named
// workload and prints, as the last line of its standard output, one JSON
// object: whether the program's outputs passed the benchmark's checks, how
// many operations were attempted and failed, and every metric with its
// unit. An untraced run (--trace 0) reports the end-to-end metrics; a
// traced run (--trace 1) records spans around each layer's entry points
// and reports the per-layer metrics. --spread N re-runs the workload over
// N seeds and prints each metric's quartiles. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gomaxprocs is fixed so that runs on hosts of different sizes schedule
// the same way; it is no larger than the two cores of the reference host.
const gomaxprocs = 2

// options are one run's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansDir string
}

// budget is the measuring time of a run.
func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

// workload is one named set of inputs. measure runs it untraced and fills
// the end-to-end metrics; traced runs it with spans and fills the
// per-layer metrics.
type workload struct {
	name    string
	why     string
	measure func(o options, r *report) error
	traced  func(o options, r *report, t *tracer) error
}

var workloads = []workload{
	{"paper", "the paper's 6-switch platform at 45% load: switch, arbiter, FIFO and link hot paths and the kernel tick/commit do nearly all the work; build and gating do almost none",
		measurePaper, tracedPaper},
	{"mesh1k", "a 32x32 mesh of 1024 uniform terminals at 0.02 flits/cycle: routing, validation and CDG checks dominate set-up, per-element gating dominates the light-load run",
		measureMesh, tracedMesh},
	{"cosim", "4x4 mesh/torus sweeps with seed forks plus closed-loop protocol sessions: fork, snapshot codec, session manager and protocol codec do the work",
		measureCosim, tracedCosim},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace, spread int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper, mesh1k or cosim")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measuring time of the run in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.IntVar(&spread, "spread", 0, "re-run the workload over this many seeds and print each metric's quartiles")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory a traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", names())
		return 2
	}
	o.trace = trace == 1

	runtime.GOMAXPROCS(gomaxprocs)
	debug.SetGCPercent(100)
	fmt.Fprintf(stdout, "# host nproc=%d cpu=%q go=%s gomaxprocs=%d\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "# workload %s seed=%d seconds=%d trace=%d: %s\n", w.name, o.seed, o.seconds, trace, w.why)

	if spread > 0 {
		if err := runSpread(o, trace, spread, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	r := newReport()
	defs := endToEnd
	var err error
	if o.trace {
		defs = perLayer
		t := newTracer()
		err = w.traced(o, r, t)
		if err == nil && o.spansDir != "" {
			path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
			if werr := t.write(path); werr != nil {
				fmt.Fprintf(stderr, "perfbench: write spans: %v\n", werr)
			}
		}
	} else {
		err = w.measure(o, r)
	}
	if err == nil {
		err = r.write(stdout, defs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !r.correct() {
		for _, c := range r.checks {
			if c.err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: check %s failed: %v\n", w.name, c.name, c.err)
			}
		}
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// derive maps the run seed and a stream index to a nonzero 32-bit seed
// (splitmix64), so each generated input gets its own stream.
func derive(seed uint64, stream uint64) uint32 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if v := uint32(z); v != 0 {
		return v
	}
	return 1
}

// runSpread runs the workload n times, one child process at a time with
// seeds o.seed .. o.seed+n-1, and prints every metric's quartiles and
// interquartile range as a share of its median — the figures the bounds
// in BENCHMARK.json are derived from.
func runSpread(o options, trace, n int, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < n; i++ {
		seed := o.seed + uint64(i)
		args := []string{"--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace)}
		if o.spansDir != "" {
			args = append(args, "--spans-dir", o.spansDir)
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %v", seed, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %v", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: checks failed", seed)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(stdout, "# run seed=%d done\n", seed)
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "# failed/attempted per run: %s\n", strings.Join(shares, " "))
	fmt.Fprintf(stdout, "%-28s %14s %14s %14s %9s %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range keys {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %14.6g %9.4f %s\n", k, q1, q2, q3, spread, units[k])
	}
	for _, k := range keys {
		vs := make([]string, len(values[k]))
		for i, v := range values[k] {
			vs[i] = strconv.FormatFloat(v, 'g', 6, 64)
		}
		fmt.Fprintf(stdout, "# runs %s: %s\n", k, strings.Join(vs, " "))
	}
	return nil
}

// lastResult parses the result object on the last non-empty line.
func lastResult(out []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	var res resultLine
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %v", err)
	}
	return res, nil
}
