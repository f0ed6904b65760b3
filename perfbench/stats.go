package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a ratio over an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a runtime/metrics readout taken around a window.
type rtSample struct {
	gcCycles   uint64
	allocObjs  uint64
	allocBytes uint64
	gcPauseSec float64
	heapBytes  uint64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out rtSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjs = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = ss[2].Value.Uint64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPauseSec = histSum(ss[3].Value.Float64Histogram())
	}
	if ss[4].Value.Kind() == metrics.KindUint64 {
		out.heapBytes = ss[4].Value.Uint64()
	}
	return out
}

// histSum estimates the total of a runtime histogram from bucket midpoints
// (the runtime publishes pause counts, not their sum).
func histSum(h *metrics.Float64Histogram) float64 {
	var s float64
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		s += float64(c) * (lo + hi) / 2
	}
	return s
}

// completion is one request finishing inside a sliced window.
type completion struct {
	at  time.Duration // since the window opened
	lat float64       // ms
}

// sliceStats holds one value per slice of a closed-loop window.
type sliceStats struct {
	rate, p50, tail []float64
}

// sliceSummary splits a closed-loop window of length wall into period-long
// slices and returns, per complete slice, the completion rate and the
// latency quantiles. Reporting the median over slices keeps a few seconds
// of interference from other processes on the host from moving the run's
// wall-clock figures.
func sliceSummary(done []completion, wall, period time.Duration, tailQ float64) sliceStats {
	n := int(wall / period)
	lat := make([][]float64, n)
	for _, c := range done {
		if k := int(c.at / period); k < n {
			lat[k] = append(lat[k], c.lat)
		}
	}
	var out sliceStats
	for k := 0; k < n; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		cnt := float64(len(lat[k]))
		out.rate = append(out.rate, cnt/period.Seconds())
		out.p50 = append(out.p50, median(lat[k]))
		out.tail = append(out.tail, quantile(lat[k], tailQ))
	}
	return out
}
