package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones an external checker
// derives from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(p/100*float64(len(s)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuNow returns the CPU time the process has used so far, user plus
// system, over all threads. The end-to-end metrics are timed with it:
// on a shared virtual machine the wall clock also counts the time the
// host gives this vCPU to other guests (steal), which varies from minute
// to minute; process CPU time does not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB of 10^6
// bytes; it returns 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

// cpuModel returns the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
