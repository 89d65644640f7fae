package main

import (
	"runtime/metrics"
	"sort"
)

// samples is a set of measurements of one quantity.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// runtimeStats is a point-in-time reading of the process-wide allocation
// and GC CPU counters. Deltas between two readings attribute cost to the
// work in between; they include every goroutine of the process.
type runtimeStats struct {
	allocBytes uint64
	gcCPU      float64
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}

func (a runtimeStats) allocMBSince(b runtimeStats) float64 {
	return float64(a.allocBytes-b.allocBytes) / (1 << 20)
}
