package shard

import "topk/internal/telemetry"

// latencyBounds are the upper bounds, in seconds, of every shard-layer
// latency histogram: powers of two from 1µs to 2^25µs (~34s).
var latencyBounds = telemetry.ExpBuckets(1e-6, 2, 26)

// newLatencyHistogram returns an empty histogram over latencyBounds; callers
// observe durations in seconds.
func newLatencyHistogram() *telemetry.Histogram { return telemetry.NewHistogram(latencyBounds) }

// HistogramSnapshot is the /stats view of a shard-layer latency histogram, in
// microseconds, with quantiles estimated by linear interpolation within the
// bucket containing the quantile rank. BucketBoundsMicros[i] is the inclusive
// upper bound (µs) of Buckets[i]; both are cut after the highest bucket in
// use, and the final bucket also absorbs every observation beyond the last
// bound.
type HistogramSnapshot struct {
	Count      uint64  `json:"count"`
	SumMicros  float64 `json:"sumMicros"`
	MeanMicros float64 `json:"meanMicros"`
	P50Micros  float64 `json:"p50Micros"`
	P95Micros  float64 `json:"p95Micros"`
	P99Micros  float64 `json:"p99Micros"`
	// Buckets is the count per µs bucket; BucketBoundsMicros its upper
	// bounds, element for element.
	Buckets            []uint64 `json:"buckets,omitempty"`
	BucketBoundsMicros []uint64 `json:"bucketBoundsMicros,omitempty"`
	// Raw is the seconds-based snapshot the view is derived from, the one
	// /metrics renders; it does not travel over JSON.
	Raw telemetry.HistogramSnapshot `json:"-"`
}

// view derives the /stats view from a snapshot over latencyBounds.
func view(raw telemetry.HistogramSnapshot) HistogramSnapshot {
	s := HistogramSnapshot{Count: raw.Count, Raw: raw}
	if s.Count == 0 {
		return s
	}
	s.SumMicros = raw.Sum * 1e6
	s.MeanMicros = s.SumMicros / float64(s.Count)
	s.P50Micros = raw.Quantile(0.50) * 1e6
	s.P95Micros = raw.Quantile(0.95) * 1e6
	s.P99Micros = raw.Quantile(0.99) * 1e6
	buckets := append([]uint64(nil), raw.Counts[:len(raw.Bounds)]...)
	buckets[len(buckets)-1] += raw.Counts[len(raw.Bounds)] // the +Inf overflow
	hi := 0
	for i, c := range buckets {
		if c > 0 {
			hi = i
		}
	}
	s.Buckets = buckets[:hi+1]
	s.BucketBoundsMicros = make([]uint64, hi+1)
	for i := range s.BucketBoundsMicros {
		s.BucketBoundsMicros[i] = uint64(1) << i
	}
	return s
}
