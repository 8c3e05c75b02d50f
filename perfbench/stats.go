package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"imtao/internal/stats"
)

// median returns the median of xs (the mean of the middle two for an even
// count) and 0 for an empty sample.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tailPercentile returns the highest percentile of xs that still has
// tailBeyond samples above it in sorted order, and that sample's value. A
// timing's median says what a typical solve costs; this is the slowest
// percentile the sample can state with ten observations behind it. ok is
// false when xs has tailBeyond or fewer samples.
func tailPercentile(xs []float64) (pct, val float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - tailBeyond - 1
	return 100 * float64(i+1) / float64(n), s[i], true
}

// lptMakespan schedules jobs longest-first onto p identical machines, each
// job to the least-loaded machine, and returns the largest machine load: the
// wall time the jobs need on p workers when nothing else gets in the way.
func lptMakespan(jobs []time.Duration, p int) time.Duration {
	if p < 1 {
		p = 1
	}
	sorted := append([]time.Duration(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]time.Duration, p)
	for _, j := range sorted {
		least := 0
		for m := 1; m < p; m++ {
			if loads[m] < loads[least] {
				least = m
			}
		}
		loads[least] += j
	}
	var span time.Duration
	for _, l := range loads {
		span = max(span, l)
	}
	return span
}

// refaultRatio is the share of shortest-path searches that rebuilt a table
// the network had built before and since evicted: searches minus newly seen
// sources, over searches. Zero when nothing was searched.
func refaultRatio(searches, newSources int64) float64 {
	if searches <= 0 {
		return 0
	}
	return float64(searches-newSources) / float64(searches)
}

// cpuTime returns the CPU time (user + system, every thread, so GC work
// included) the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostTicks returns, from /proc/stat, the cumulative time all CPUs of the
// machine spent, and the part of it the hypervisor gave to other guests
// (steal), in clock ticks. Steal makes every wall time on a shared host
// longer without any change in the program; zeros where unavailable.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
