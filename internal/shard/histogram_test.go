package shard

import (
	"math"
	"slices"
	"testing"
	"time"
)

// observe records durations into a fresh shard-layer histogram and returns
// its /stats view.
func observe(ds ...time.Duration) HistogramSnapshot {
	h := newLatencyHistogram()
	for _, d := range ds {
		h.Observe(d.Seconds())
	}
	return view(h.Snapshot())
}

// TestHistogram pins the /stats view of a shard histogram: power-of-two µs
// bounds, one bucket per bound, a sub-microsecond remainder counted in the
// next bucket up (1.5µs is in (1, 2]µs, not "≤ 1µs"), overflow folded into
// the last bucket, monotone quantiles and the mean.
func TestHistogram(t *testing.T) {
	if s := observe(); s.Count != 0 || s.Buckets != nil || s.BucketBoundsMicros != nil || s.MeanMicros != 0 {
		t.Fatalf("empty view = %+v, want zero", s)
	}

	// Buckets are cut after the highest one in use.
	s := observe(3*time.Microsecond, 100*time.Microsecond)
	if want := []uint64{0, 0, 1, 0, 0, 0, 0, 1}; !slices.Equal(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}

	durations := []time.Duration{
		500 * time.Nanosecond, time.Microsecond, 1500 * time.Nanosecond, 3 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
		time.Minute, // beyond the last bound (2^25 µs ≈ 33.6 s)
	}
	s = observe(durations...)
	if s.Count != uint64(len(durations)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durations))
	}
	if len(s.Buckets) != len(latencyBounds) || len(s.BucketBoundsMicros) != len(s.Buckets) {
		t.Fatalf("%d buckets, %d bounds, want %d each", len(s.Buckets), len(s.BucketBoundsMicros), len(latencyBounds))
	}
	for i, b := range s.BucketBoundsMicros {
		if b != 1<<i {
			t.Fatalf("bound %d = %dµs, want %d", i, b, 1<<i)
		}
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("buckets = %v: want 500ns and 1µs in the first, 1.5µs in the second, the overflow in the last", s.Buckets)
	}
	var sum time.Duration
	for _, d := range durations {
		sum += d
	}
	if wantSum := float64(sum.Nanoseconds()) / 1e3; math.Abs(s.SumMicros-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %vµs, want %v", s.SumMicros, wantSum)
	}
	if s.MeanMicros != s.SumMicros/float64(s.Count) {
		t.Fatalf("mean = %v, want sum/count = %v", s.MeanMicros, s.SumMicros/float64(s.Count))
	}
	if s.P50Micros <= 0 || s.P95Micros < s.P50Micros || s.P99Micros < s.P95Micros {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50Micros, s.P95Micros, s.P99Micros)
	}
	if last := float64(s.BucketBoundsMicros[len(s.BucketBoundsMicros)-1]); s.P99Micros > last {
		t.Fatalf("p99 = %vµs beyond the last bound %v", s.P99Micros, last)
	}
}
