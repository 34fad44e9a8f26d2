package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
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

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rtCounters holds the Go runtime counters the benchmark attributes
// to queries: a snapshot, or a sum of deltas over the timed calls only,
// so the correctness checks between queries do not count.
type rtCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	pauseNs    uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// sampleRuntime reads the runtime counters. withPause also reads the
// cumulative GC pause time, which needs a stop-the-world ReadMemStats,
// so the untraced runs leave it out.
func sampleRuntime(withPause bool) rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := rtCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
	if withPause {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		out.pauseNs = m.PauseTotalNs
	}
	return out
}

// add accumulates the delta between two snapshots.
func (t *rtCounters) add(before, after rtCounters) {
	t.allocBytes += after.allocBytes - before.allocBytes
	t.gcCycles += after.gcCycles - before.gcCycles
	t.gcCPU += after.gcCPU - before.gcCPU
	t.totalCPU += after.totalCPU - before.totalCPU
	t.pauseNs += after.pauseNs - before.pauseNs
}

// setRuntimeLayer reports the per-query Go runtime figures.
func (t *rtCounters) setRuntimeLayer(m metricSet, queries int) {
	n := float64(queries)
	m.set("runtime.gc_cycles_per_query", ratio(float64(t.gcCycles), n), "count")
	m.set("runtime.gc_pause_ms_per_query", ratio(float64(t.pauseNs)/1e6, n), "ms")
	m.set("runtime.gc_cpu_fraction", ratio(t.gcCPU, t.totalCPU), "ratio")
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
