package main

import (
	"math"
	"runtime/metrics"
)

// rtSnap is a point-in-time read of the Go runtime counters the
// benchmark reports, taken around a load phase.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		out.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return out
}

// runtimeLayer fills the runtime.* metrics for the phase between a and b.
func runtimeLayer(m report, a, b rtSnap, committed int, goroutinesMax int64) {
	m.set("runtime.alloc_bytes_per_txn", perTxn(int64(b.allocBytes-a.allocBytes), committed), "B/txn")
	m.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	m.set("runtime.gc_pause_p99_us", pauseP99(a.pauses, b.pauses)*1e6, "us")
	m.set("runtime.goroutines_max", float64(goroutinesMax), "count")
}

// pauseP99 is the 99th percentile of the GC pauses recorded between two
// reads of the pause histogram, in seconds (the bucket's upper bound).
func pauseP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
