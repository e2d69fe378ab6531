// Package telemetry is the zero-dependency metrics substrate of the serving
// stack: cumulative le-bucket histograms and Prometheus text-exposition
// rendering (version 0.0.4). It exists so every layer — HTTP server, shard
// router, hybrid engine, WAL — reports through one scrape endpoint without
// pulling a client library into the module.
//
// Every family is written at scrape time. A layer keeps its own counts
// (atomics, a Histogram, a stats snapshot) and registers a collector
// (Registry.Collect) that writes them through a Writer when a scraper asks;
// the collector alone decides how its families are named, labelled and
// rendered. Metric and label names are program literals; the server's
// exposition-lint test parses every family a scrape renders.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bound cumulative histogram in the Prometheus bucket
// model: bounds are inclusive upper bounds, observations beyond the last
// bound land in the implicit +Inf bucket. Observe is a bucket scan plus
// three atomic operations; all methods are safe for concurrent use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram creates a histogram over the given ascending upper bounds.
// Its owner renders it from a collector with Writer.Histogram(…,
// h.Snapshot()).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot copies the histogram's state. Concurrent Observes may land
// between the individual loads; each counter is itself consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts[i] is
// the per-bucket (non-cumulative) count of observations ≤ Bounds[i]; the
// final entry of Counts is the +Inf overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// within the bucket containing the quantile rank. Observations in the +Inf
// bucket are credited to the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			hi := s.Bounds[len(s.Bounds)-1]
			lo := 0.0
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the exponential bucket layout of latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets is the default request-latency layout: 50µs to ~105s
// in ×2 steps, in seconds.
var DefLatencyBuckets = ExpBuckets(50e-6, 2, 21)

// Labels renders alternating name, value pairs as an exposition label block
// (without braces) — the label argument of the Writer methods.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("telemetry: Labels needs name, value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// Registry holds the scrape-time collectors and renders them as one
// exposition document. The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Writer)
}

// Collect registers a scrape-time collector: fn runs against the Writer at
// every exposition, after the collectors registered before it.
func (r *Registry) Collect(fn func(*Writer)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus runs every collector against one Writer and returns the
// first write error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(*Writer){}, r.collectors...)
	r.mu.Unlock()

	ew := &Writer{w: w, typed: make(map[string]string)}
	for _, fn := range collectors {
		fn(ew)
	}
	return ew.err
}
