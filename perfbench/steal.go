package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// often runs other tenants on this machine's CPUs: the guest sees that
// time as steal. On one 2-vCPU machine steal took 0% to 40% of the CPU
// time the benchmark wanted, in bursts of seconds to minutes, which moved
// wall-clock figures by more than the regressions the benchmark must
// catch. So every time an untraced run reports is steal-corrected: the
// measured time multiplied by 1 - s, where s is the share of the CPU time
// wanted during exactly that interval (busy plus stolen, summed over all
// CPUs in /proc/stat) that was stolen. Each interval is corrected on its
// own, because a burst can hit one day's advance and spare the rest of
// the round. With no steal the factor is 1 and the figure is the plain
// wall-clock measurement. The uncorrected medians are printed on stderr.

// cpuTicks is one reading of the aggregate line of /proc/stat.
type cpuTicks struct {
	Busy  uint64 `json:"busy"`
	Steal uint64 `json:"steal"`
}

// readTicks returns the machine's busy and stolen CPU ticks so far, or
// zero ticks where /proc/stat is unavailable (no correction then).
func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	return cpuTicks{Busy: v[0] + v[1] + v[2] + v[5] + v[6], Steal: v[7]}
}

// stealFactor returns 1 - the stolen share of the CPU time wanted between
// two readings.
func stealFactor(a, b cpuTicks) float64 {
	busy, steal := b.Busy-a.Busy, b.Steal-a.Steal
	if busy+steal == 0 {
		return 1
	}
	return 1 - float64(steal)/float64(busy+steal)
}

// timed is one measured interval: its wall time and the steal factor over
// exactly that interval.
type timed struct {
	NS     int64   `json:"ns"`
	Factor float64 `json:"factor"`
}

// seconds returns the interval, steal-corrected or as measured.
func (t timed) seconds(corrected bool) float64 {
	s := float64(t.NS) / 1e9
	if corrected {
		s *= t.Factor
	}
	return s
}

func (t timed) dur() time.Duration { return time.Duration(t.NS) }

// sumTimed is the total of several intervals, with the factor that
// corrects the total by the sum of their corrected times.
func sumTimed(ts []timed) timed {
	var ns int64
	var corrected float64
	for _, t := range ts {
		ns += t.NS
		corrected += float64(t.NS) * t.Factor
	}
	if ns == 0 {
		return timed{Factor: 1}
	}
	return timed{NS: ns, Factor: corrected / float64(ns)}
}

// stopwatch starts an interval that stop turns into a timed.
type stopwatch struct {
	start time.Time
	ticks cpuTicks
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), ticks: readTicks()} }

func (w stopwatch) stop() timed {
	return timed{NS: time.Since(w.start).Nanoseconds(), Factor: stealFactor(w.ticks, readTicks())}
}

// seconds converts intervals to seconds, steal-corrected or as measured.
func seconds(ts []timed, corrected bool) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.seconds(corrected)
	}
	return out
}
