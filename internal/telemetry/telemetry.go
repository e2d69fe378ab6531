// Package telemetry is the zero-dependency metrics substrate of the serving
// stack: counters, gauges and cumulative le-bucket histograms with
// Prometheus text-exposition rendering (version 0.0.4). It exists so every
// layer — HTTP server, shard router, hybrid engine, WAL — reports through
// one scrape endpoint without pulling a client library into the module.
//
// Two usage modes share one Registry:
//
//   - Static instruments (Counter, Gauge, Histogram and their labeled Vec
//     variants) are created up front via the Registry and updated on hot
//     paths with a few atomic operations. They render themselves at scrape.
//   - Scrape-time collectors (Registry.Collect) run a callback against a
//     Writer at every exposition, for layers that already maintain their own
//     snapshot-style statistics (shard.Stats, hybrid plan counters, WAL
//     counters): the callback pulls the snapshot and writes families
//     directly, so the hot path pays nothing at all.
//
// Metric and label names are validated at registration; a malformed name is
// a programming error and panics at startup rather than emitting exposition
// a scraper rejects.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func checkName(name string) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func checkLabel(name string) {
	if !labelRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", name))
	}
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use; Inc/Add are single atomic adds.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) expose(w *Writer, name, labels string) {
	w.sample(name, labels, float64(c.v.Load()))
}

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) expose(w *Writer, name, labels string) {
	w.sample(name, labels, g.Value())
}

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

// NewHistogram creates an unregistered histogram over the given ascending
// upper bounds — the instrument for packages that expose snapshots rather
// than register themselves (the WAL's fsync-latency histogram). Registered
// histograms come from Registry.Histogram.
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

func (h *Histogram) expose(w *Writer, name, labels string) {
	w.histogramSamples(name, labels, h.Snapshot())
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

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// exposer renders one child's samples.
type exposer interface {
	expose(w *Writer, name, labels string)
}

// family is one registered metric name: help, type and its labeled children.
type family struct {
	name, help, typ string

	mu       sync.Mutex
	order    []string           // label blocks in creation order
	children map[string]exposer // label block -> instrument
	fn       func() float64     // GaugeFunc families
}

func (f *family) child(labels string, mk func() exposer) exposer {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labels]; ok {
		return c
	}
	c := mk()
	f.children[labels] = c
	f.order = append(f.order, labels)
	return c
}

// Registry holds registered instruments and scrape-time collectors and
// renders them as one exposition document.
type Registry struct {
	mu         sync.Mutex
	fams       []*family
	byName     map[string]*family
	collectors []func(*Writer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string) *family {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, children: make(map[string]exposer)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Collect registers a scrape-time collector: fn runs against the Writer at
// every exposition, after the static instruments. Collectors must write
// family names that no static instrument owns.
func (r *Registry) Collect(fn func(*Writer)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter").child("", func() exposer { return c })
	return c
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge").child("", func() exposer { return g })
	return g
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge").fn = fn
}

// Histogram registers an unlabeled histogram over the given bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, "histogram").child("", func() exposer { return h })
	return h
}

// CounterVec registers a counter family partitioned by the given labels.
type CounterVec struct {
	fam    *family
	labels []string
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	for _, l := range labelNames {
		checkLabel(l)
	}
	return &CounterVec{fam: r.register(name, help, "counter"), labels: labelNames}
}

// With returns the child counter for the given label values (one per label
// name, in registration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	block := labelBlock(v.fam.name, v.labels, values)
	return v.fam.child(block, func() exposer { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct {
	fam    *family
	labels []string
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	for _, l := range labelNames {
		checkLabel(l)
	}
	return &GaugeVec{fam: r.register(name, help, "gauge"), labels: labelNames}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	block := labelBlock(v.fam.name, v.labels, values)
	return v.fam.child(block, func() exposer { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	fam    *family
	labels []string
	bounds []float64
}

// HistogramVec registers a labeled histogram family over shared bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	for _, l := range labelNames {
		checkLabel(l)
	}
	return &HistogramVec{fam: r.register(name, help, "histogram"), labels: labelNames, bounds: bounds}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	block := labelBlock(v.fam.name, v.labels, values)
	return v.fam.child(block, func() exposer { return NewHistogram(v.bounds) }).(*Histogram)
}

func labelBlock(metric string, names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("telemetry: %s: %d label values for %d labels", metric, len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// Labels renders alternating name, value pairs as an exposition label block
// (without braces) — the label argument of the Writer helpers.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("telemetry: Labels needs name, value pairs")
	}
	names := make([]string, 0, len(kv)/2)
	values := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		checkLabel(kv[i])
		names = append(names, kv[i])
		values = append(values, kv[i+1])
	}
	return labelBlock("", names, values)
}

// WritePrometheus renders every registered instrument and collector as one
// Prometheus text-exposition document.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	collectors := append([]func(*Writer){}, r.collectors...)
	r.mu.Unlock()

	ew := &Writer{w: w, typed: make(map[string]string)}
	for _, f := range fams {
		ew.family(f.name, f.help, f.typ)
		if f.fn != nil {
			ew.sample(f.name, "", f.fn())
			continue
		}
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		children := make([]exposer, len(order))
		for i, block := range order {
			children[i] = f.children[block]
		}
		f.mu.Unlock()
		for i, block := range order {
			children[i].expose(ew, f.name, block)
		}
	}
	for _, fn := range collectors {
		fn(ew)
	}
	return ew.err
}
