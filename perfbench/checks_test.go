package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"nocemu/internal/dse"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
)

// Each check must accept a right input and reject a deliberately wrong one.

func TestCheckHotLinks(t *testing.T) {
	loads := []float64{0.45, 0.899, 0.2, 0.905}
	if err := checkHotLinks(loads, []int{1, 3}, 0.90, 0.01); err != nil {
		t.Fatalf("loads at 0.90: %v", err)
	}
	loads[3] = 0.80
	if err := checkHotLinks(loads, []int{1, 3}, 0.90, 0.01); err == nil {
		t.Fatal("a hot link at 0.80 was accepted")
	}
	if err := checkHotLinks(loads, []int{1, 7}, 0.90, 0.01); err == nil {
		t.Fatal("a hot link outside the link list was accepted")
	}
}

func TestCheckConservation(t *testing.T) {
	if err := checkConservation(100, 8, 90, 18); err != nil {
		t.Fatalf("balanced flits: %v", err)
	}
	if err := checkConservation(100, 8, 90, 17); err == nil {
		t.Fatal("a flit count that does not balance was accepted")
	}
	if err := checkConservation(100, 0, 101, -1); err == nil {
		t.Fatal("a negative live count was accepted")
	}
	if err := checkDrained(0); err != nil {
		t.Fatalf("empty pool after drain: %v", err)
	}
	if err := checkDrained(3); err == nil {
		t.Fatal("live flits after Drain were accepted")
	}
}

func summaryJSON(t *testing.T, mutate func(*monitor.Summary)) []byte {
	t.Helper()
	s := monitor.Summary{
		Name: "p",
		Totals: platform.Totals{
			PacketsSent: 5, FlitsSent: 45, PacketsReceived: 4, FlitsReceived: 36,
		},
		TGs: []monitor.TGSummary{{Name: "a", Sent: 2, Flits: 18}, {Name: "b", Sent: 3, Flits: 27}},
		TRs: []monitor.TRSummary{{Name: "x", Packets: 1, Flits: 9}, {Name: "y", Packets: 3, Flits: 27}},
	}
	if mutate != nil {
		mutate(&s)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckSummary(t *testing.T) {
	if _, err := checkSummary(summaryJSON(t, nil)); err != nil {
		t.Fatalf("consistent readout: %v", err)
	}
	bad := map[string]func(*monitor.Summary){
		"receptor packets": func(s *monitor.Summary) { s.TRs[0].Packets++ },
		"receptor flits":   func(s *monitor.Summary) { s.Totals.FlitsReceived-- },
		"generator flits":  func(s *monitor.Summary) { s.TGs[1].Flits = 0 },
		"no receptors":     func(s *monitor.Summary) { s.TRs = nil },
	}
	for name, m := range bad {
		if _, err := checkSummary(summaryJSON(t, m)); err == nil {
			t.Errorf("%s: a readout whose rows do not sum to its totals was accepted", name)
		}
	}
	if _, err := checkSummary([]byte(`{"name": "p", "totals": `)); err == nil {
		t.Error("a truncated readout was accepted")
	}
}

func TestCheckOfferedLoad(t *testing.T) {
	const terminals, cycles, plen = 1024, 10000, 4
	n := uint64(terminals * cycles)
	exact := uint64(float64(n) * 0.02 / plen)
	if err := checkOfferedLoad(exact, plen, terminals, cycles, 0.02); err != nil {
		t.Fatalf("offered load of exactly 0.02: %v", err)
	}
	if err := checkOfferedLoad(exact*105/100, plen, terminals, cycles, 0.02); err == nil {
		t.Fatal("an offered load 5% above 0.02 was accepted")
	}
	if err := checkOfferedLoad(exact, plen, terminals, 0, 0.02); err == nil {
		t.Fatal("a run of zero cycles was accepted")
	}
}

func TestMeshHopsAndXfer(t *testing.T) {
	if got := meshHops(0, 15, 4); got != 6 {
		t.Fatalf("hops from corner to corner of a 4x4 mesh = %d, want 6", got)
	}
	if got := meshHops(5, 6, 4); got != 1 {
		t.Fatalf("hops between neighbours = %d, want 1", got)
	}
	if err := checkXfer(true, 6, 6); err != nil {
		t.Fatalf("latency equal to the hop distance: %v", err)
	}
	if err := checkXfer(true, 5, 6); err == nil {
		t.Fatal("an xfer latency below its hop distance was accepted")
	}
	if err := checkXfer(false, 40, 6); err == nil {
		t.Fatal("an undelivered xfer was accepted")
	}
}

func TestCheckFront(t *testing.T) {
	pts := []dse.FrontPoint{
		{Key: "a", LatencyCycles: 10, Throughput: 0.1, AreaSlices: 100},
		{Key: "b", LatencyCycles: 12, Throughput: 0.2, AreaSlices: 100},
		{Key: "c", LatencyCycles: 12, Throughput: 0.1, AreaSlices: 100}, // dominated by a and b
		{Key: "d", LatencyCycles: 20, Throughput: 0.05, AreaSlices: 50},
	}
	front := []dse.FrontPoint{pts[0], pts[1], pts[3]}
	if err := checkFront(pts, front); err != nil {
		t.Fatalf("the true front: %v", err)
	}
	if err := checkFront(pts, append(front[:3:3], pts[2])); err == nil {
		t.Fatal("a dominated point placed in the front was accepted")
	}
	if err := checkFront(pts, front[:2]); err == nil {
		t.Fatal("a front missing a non-dominated point was accepted")
	}
	swapped := []dse.FrontPoint{pts[0], pts[2], pts[3]}
	if err := checkFront(pts, swapped); err == nil {
		t.Fatal("a front holding a dominated point instead of a non-dominated one was accepted")
	}
}

func TestCheckRows(t *testing.T) {
	rows := make([]dse.Row, 6)
	if err := checkRows(rows, 3, 2); err != nil {
		t.Fatalf("3 points x 2 forks: %v", err)
	}
	if err := checkRows(rows[:5], 3, 2); err == nil {
		t.Fatal("a row count that is not points x forks was accepted")
	}
	rows[2].Error = "deadlock"
	if err := checkRows(rows, 3, 2); err == nil {
		t.Fatal("a failed row was accepted")
	}
}

func TestCheckReplay(t *testing.T) {
	want := []byte("{\"id\":1}\n{\"id\":2,\"latency\":7}\n")
	if err := checkReplay(append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical transcripts: %v", err)
	}
	if err := checkReplay([]byte("{\"id\":1}\n{\"id\":2,\"latency\":8}\n"), want); err == nil {
		t.Fatal("a replay with a different response was accepted")
	}
	if err := checkReplay([]byte("{\"id\":1}\n"), want); err == nil {
		t.Fatal("a replay missing a response was accepted")
	}
}

func TestCheckAttribution(t *testing.T) {
	if err := checkAttribution(1.0, 0.9995, 0.01); err != nil {
		t.Fatalf("self times covering the set-up: %v", err)
	}
	if err := checkAttribution(1.0, 0.5, 0.01); err == nil {
		t.Fatal("self times covering half the set-up were accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 99); p != 5 {
		t.Errorf("p99 of five values = %v, want the largest", p)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Parent: 0, Name: "setup", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "topology.gen", Start: ms(1), End: ms(11)},
		{ID: 3, Parent: 1, Name: "platform.build", Start: ms(11), End: ms(99)},
		{ID: 4, Parent: 3, Name: "routing.table", Start: ms(20), End: ms(50)},
		{ID: 5, Parent: 0, Name: "state.snapshot", Start: ms(100), End: ms(105)},
	}
	self := selfTimes(spans, 1)
	want := map[string]time.Duration{
		"setup": 2 * time.Millisecond, "topology": 10 * time.Millisecond,
		"platform": 58 * time.Millisecond, "routing": 30 * time.Millisecond,
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, self[l], d)
		}
	}
	if _, ok := self["state"]; ok {
		t.Error("a span outside the root counted toward its self times")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("setup")
	tr.do("topology.gen", func() error { return nil })
	tr.end(outer)
	if s := tr.spans[1]; s.Name != "topology.gen" || s.Parent != outer {
		t.Fatalf("child span %+v does not name its parent %d", s, outer)
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span that is not innermost did not panic")
		}
	}()
	a := tr.begin("a")
	tr.begin("b")
	tr.end(a)
}

// TestBenchmarkJSON keeps the metric tables and workloads in step with the
// repository's BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Command) == 0 || !strings.HasPrefix(strings.Join(bj.Command, " "), "bash perfbench/") {
		t.Errorf("command %q does not run the benchmark's script", bj.Command)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %s (%q), the benchmark %s (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
}
