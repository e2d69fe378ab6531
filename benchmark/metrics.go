package main

import (
	"math"
	"sort"
	"time"
)

// reading is one reported number. n is the sample count behind it (0 where
// the value is a counter or a ratio of counters).
type reading struct {
	name  string
	value float64
	unit  string
	n     int
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// supportedTail is the highest reported percentile (p50, p90, p99, p99.9)
// that still has at least ten samples beyond it — the highest one worth
// reading at this sample count; 0 when not even the median has. Counted in
// whole per-mille so that n = 100 supports p90 exactly.
func supportedTail(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies splits a phase's successful operations into sorted read and
// write latency samples, in milliseconds.
func latencies(w *workload, recs []opRecord) (reads, writes []float64) {
	for i := range recs {
		if !recs[i].ok {
			continue
		}
		l := ms(recs[i].end - recs[i].start)
		if w.reqs[recs[i].req].kind.read() {
			reads = append(reads, l)
		} else {
			writes = append(writes, l)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	return reads, writes
}

// ratio is a/b, 0 when b is 0: a layer that saw no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
