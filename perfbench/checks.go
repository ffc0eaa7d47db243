package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"nocemu/internal/dse"
	"nocemu/internal/monitor"
)

// The checks below judge the program's outputs against quantities the
// benchmark derives on its own (offered load, hop distance, Pareto
// dominance) or against properties the method must have (conservation,
// determinism). None compares against a stored copy of earlier output.

// checkHotLinks verifies that every hot link carries want of its capacity
// within tol.
func checkHotLinks(loads []float64, hot []int, want, tol float64) error {
	for _, i := range hot {
		if i < 0 || i >= len(loads) {
			return fmt.Errorf("hot link %d outside %d links", i, len(loads))
		}
		if math.Abs(loads[i]-want) > tol {
			return fmt.Errorf("hot link %d carries %.4f of capacity, want %.2f ± %.2f", i, loads[i], want, tol)
		}
	}
	return nil
}

// checkConservation verifies that every pooled flit is accounted for:
// flits sent plus flits still queued at the sources equal flits received
// plus the flits the pool still counts live (queued flits are drawn from
// the pool before they are sent).
func checkConservation(sent, queued, received uint64, live int64) error {
	if live < 0 {
		return fmt.Errorf("pool reports %d live flits", live)
	}
	if sent+queued != received+uint64(live) {
		return fmt.Errorf("flits do not balance: sent %d + queued %d != received %d + live %d",
			sent, queued, received, live)
	}
	return nil
}

// checkDrained verifies that no pooled flit is left after Drain.
func checkDrained(live int64) error {
	if live != 0 {
		return fmt.Errorf("%d flits still live after Drain", live)
	}
	return nil
}

// checkSummary parses a bus-pulled monitor JSON readout and verifies that
// its per-generator and per-receptor rows sum to its totals.
func checkSummary(b []byte) (monitor.Summary, error) {
	var s monitor.Summary
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("readout does not parse: %v", err)
	}
	if len(s.TGs) == 0 || len(s.TRs) == 0 {
		return s, fmt.Errorf("readout lists %d generators and %d receptors", len(s.TGs), len(s.TRs))
	}
	var sent, sentFlits, recv, recvFlits uint64
	for _, g := range s.TGs {
		sent += g.Sent
		sentFlits += g.Flits
	}
	for _, r := range s.TRs {
		recv += r.Packets
		recvFlits += r.Flits
	}
	t := s.Totals
	switch {
	case sent != t.PacketsSent:
		return s, fmt.Errorf("generator rows send %d packets, totals say %d", sent, t.PacketsSent)
	case sentFlits != t.FlitsSent:
		return s, fmt.Errorf("generator rows send %d flits, totals say %d", sentFlits, t.FlitsSent)
	case recv != t.PacketsReceived:
		return s, fmt.Errorf("receptor rows receive %d packets, totals say %d", recv, t.PacketsReceived)
	case recvFlits != t.FlitsReceived:
		return s, fmt.Errorf("receptor rows receive %d flits, totals say %d", recvFlits, t.FlitsReceived)
	}
	return s, nil
}

// checkOfferedLoad verifies that the offered load, in flits per terminal-cycle,
// lies within five binomial standard deviations of want: each
// terminal-cycle starts a packet of packetLen flits with probability
// want/packetLen.
func checkOfferedLoad(packets uint64, packetLen, terminals int, cycles uint64, want float64) error {
	if packetLen <= 0 || terminals <= 0 || cycles == 0 {
		return fmt.Errorf("no terminal-cycles to judge (len %d, terminals %d, cycles %d)", packetLen, terminals, cycles)
	}
	n := float64(terminals) * float64(cycles)
	p := want / float64(packetLen)
	got := float64(packets) * float64(packetLen) / n
	tol := 5 * float64(packetLen) * math.Sqrt(p*(1-p)/n)
	if math.Abs(got-want) > tol {
		return fmt.Errorf("offered %.5f flits per terminal-cycle, want %.3f ± %.5f", got, want, tol)
	}
	return nil
}

// meshHops is the XY hop distance between nodes a and b of a mesh w nodes
// wide, with node i at column i mod w and row i div w.
func meshHops(a, b, w int) int {
	dx := a%w - b%w
	dy := a/w - b/w
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// checkXfer verifies that a transfer was delivered no sooner than its hop
// distance allows.
func checkXfer(delivered bool, latency uint64, hops int) error {
	if !delivered {
		return fmt.Errorf("transfer not delivered")
	}
	if latency < uint64(hops) {
		return fmt.Errorf("transfer latency %d below its %d-hop distance", latency, hops)
	}
	return nil
}

// dominates reports whether a is at least as good as b on latency, throughput
// and area (the sweep's objectives) and strictly better on one.
func dominates(a, b dse.FrontPoint) bool {
	ge := a.LatencyCycles <= b.LatencyCycles && a.Throughput >= b.Throughput && a.AreaSlices <= b.AreaSlices
	gt := a.LatencyCycles < b.LatencyCycles || a.Throughput > b.Throughput || a.AreaSlices < b.AreaSlices
	return ge && gt
}

// paretoKeys recomputes the non-dominated subset of points, by key.
func paretoKeys(points []dse.FrontPoint) []string {
	var keys []string
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			keys = append(keys, p.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// checkFront verifies that the sweep's front is exactly the non-dominated
// set of its points.
func checkFront(points, front []dse.FrontPoint) error {
	want := paretoKeys(points)
	got := make([]string, len(front))
	for i, f := range front {
		got[i] = f.Key
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("front has %d points, the non-dominated set has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("front holds %s where the non-dominated set holds %s", got[i], want[i])
		}
	}
	return nil
}

// checkRows verifies that a sweep returned one usable row per evaluated
// point and fork.
func checkRows(rows []dse.Row, evaluated, forks int) error {
	if len(rows) != evaluated*forks {
		return fmt.Errorf("%d rows for %d points x %d forks", len(rows), evaluated, forks)
	}
	for _, r := range rows {
		if r.Error != "" {
			return fmt.Errorf("row %s failed: %s", r.Key, r.Error)
		}
	}
	return nil
}

// checkReplay verifies that a replayed transcript is byte-identical.
func checkReplay(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("replay differs at response %d: %s != %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("replay gave %d lines, the session %d", len(gl), len(wl))
}
