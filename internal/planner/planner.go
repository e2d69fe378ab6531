// Package planner implements the query router of the hybrid engine: given
// several physical backends answering the same exact range query, it picks
// the one predicted to be cheapest for the query's threshold.
//
// The paper's central observation is that no single structure wins
// everywhere: which one is cheapest depends on the query radius, the data's
// Zipf skew and its distance distribution (Figures 8/9). The planner
// operationalizes that for the two structures the hybrid engine serves from
// — the inverted index and the AdaptSearch prefix filter, which trade places
// as θ grows: the Section 5 cost model provides per-backend *prior* cost
// curves over a grid of threshold buckets, and every executed query refines
// the bucket's estimate with an exponentially weighted moving average of
// observed latency (and distance calls, the paper's DFC measure). Routing is
// the argmin of the blended estimate; an optional deterministic exploration
// schedule (Config.ExploreEvery, which the hybrid engine leaves off) keeps
// every backend's statistics fresh, a forced-backend escape hatch bypasses
// the model entirely, and a calibration mode replays sample queries against
// all backends to seed the observations before serving.
package planner

import (
	"fmt"
	"sync"
	"sync/atomic"

	"topk/internal/costmodel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// Backend is one physical index structure inside a hybrid engine. Every
// index kind of package topk adapts to it: an exact raw-threshold range
// search drawing per-query scratch from the kind's pool, with Footrule
// evaluations counted on ev.
type Backend interface {
	// Name identifies the backend in plans, stats and the forced-backend
	// escape hatch (e.g. "inverted", "adaptsearch").
	Name() string
	// SearchRaw answers the exact range query (q, rawTheta) over the
	// backend's internal id space, sorted by id. ev must count every
	// distance evaluation the query performs; a nil ev is allowed.
	SearchRaw(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) ([]ranking.Result, error)
	// Len returns the number of indexed rankings.
	Len() int
	// K returns the ranking size.
	K() int
}

// Canonical backend names of package topk's Backend adapters. The hybrid
// engine serves from BackendInverted and BackendAdaptSearch, the two Priors
// derives cost curves for; the others name standalone index kinds.
const (
	BackendInverted    = "inverted"
	BackendBlocked     = "blocked"
	BackendCoarse      = "coarse"
	BackendBKTree      = "bktree"
	BackendAdaptSearch = "adaptsearch"
)

// DefaultBuckets is the number of threshold buckets the planner keeps
// statistics for: normalized θ ∈ [0,1] is discretized into equal-width
// buckets, matching the granularity of the paper's theta grids.
const DefaultBuckets = 16

// Config tunes a Planner.
type Config struct {
	// Buckets is the number of equal-width θ buckets (default DefaultBuckets).
	Buckets int
	// Alpha is the EWMA weight of a new observation (default 0.2).
	Alpha float64
	// PriorWeight is how many observations the model prior counts as when
	// blending with the EWMA (≤ 0 selects the default 4). Higher values
	// trust the cost model longer; to trust observations almost immediately
	// use a small positive value (the zero value cannot mean "no prior"
	// because Config{} must select the default).
	PriorWeight float64
	// ExploreEvery routes every N-th query of a bucket to that bucket's
	// least-observed backend instead of the predicted-cheapest, keeping all
	// estimates fresh (0, the default, disables exploration).
	ExploreEvery int
}

func (c *Config) fill() {
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.PriorWeight <= 0 {
		c.PriorWeight = 4
	}
	if c.ExploreEvery < 0 {
		c.ExploreEvery = 0
	}
}

// cell is the per-(backend, bucket) statistic: an EWMA of observed query
// latency and distance calls, plus the observation count.
type cell struct {
	ewmaNanos float64
	ewmaDFC   float64
	count     uint64
}

// Planner routes queries across backends by predicted cost.
type Planner struct {
	names  []string
	cfg    Config
	priors [][]float64 // [backend][bucket] prior nanoseconds

	mu    sync.Mutex
	cells [][]cell // [backend][bucket]
	seq   []uint64 // per-bucket query counter driving exploration
	// overlay is a per-backend additive cost surcharge (nanoseconds per
	// query), bucket-independent: the hybrid engine charges its static
	// backends the linear delta-overlay scan every one of their queries
	// pays, so estimates track the overlay as it grows instead of waiting
	// for the EWMA to drift after the fact.
	overlay []float64

	forced      atomic.Int32    // forced backend index, -1 = model-driven
	plans       []atomic.Uint64 // queries routed per backend (range + KNN)
	mispredicts []atomic.Uint64 // observations landing >2x over the estimate
}

// New creates a planner over the named backends. priors[b][bucket] is the
// modeled cost (nanoseconds) of backend b at the bucket's threshold; pass
// nil for flat (indifferent) priors. len(priors) must match len(names) when
// non-nil.
func New(names []string, priors [][]float64, cfg Config) (*Planner, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("planner: no backends")
	}
	cfg.fill()
	if priors == nil {
		priors = make([][]float64, len(names))
	}
	if len(priors) != len(names) {
		return nil, fmt.Errorf("planner: %d prior curves for %d backends", len(priors), len(names))
	}
	p := &Planner{
		names:       names,
		cfg:         cfg,
		priors:      make([][]float64, len(names)),
		cells:       make([][]cell, len(names)),
		seq:         make([]uint64, cfg.Buckets),
		overlay:     make([]float64, len(names)),
		plans:       make([]atomic.Uint64, len(names)),
		mispredicts: make([]atomic.Uint64, len(names)),
	}
	for b := range names {
		p.cells[b] = make([]cell, cfg.Buckets)
		p.priors[b] = clampCurve(priors[b], cfg.Buckets)
	}
	p.forced.Store(-1)
	return p, nil
}

// clampCurve fits a prior curve onto the bucket grid: a short curve repeats
// its last point, a nil curve is flat (indifferent, tie-broken by backend
// order).
func clampCurve(curve []float64, buckets int) []float64 {
	out := make([]float64, buckets)
	for i := range out {
		if curve == nil {
			out[i] = 1
			continue
		}
		j := i
		if j >= len(curve) {
			j = len(curve) - 1
		}
		out[i] = curve[j]
	}
	return out
}

// Buckets returns the number of threshold buckets.
func (p *Planner) Buckets() int { return p.cfg.Buckets }

// Bucket maps a normalized threshold θ ∈ [0,1] onto a bucket index.
func (p *Planner) Bucket(theta float64) int {
	if theta <= 0 {
		return 0
	}
	if theta >= 1 {
		return p.cfg.Buckets - 1
	}
	return int(theta * float64(p.cfg.Buckets))
}

// Names returns the backend names in routing order.
func (p *Planner) Names() []string { return p.names }

// index resolves a backend name.
func (p *Planner) index(name string) (int, error) {
	for i, n := range p.names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("planner: unknown backend %q (have %v)", name, p.names)
}

// Force pins all routing to one backend; an empty name returns to
// model-driven routing.
func (p *Planner) Force(name string) error {
	if name == "" {
		p.forced.Store(-1)
		return nil
	}
	i, err := p.index(name)
	if err != nil {
		return err
	}
	p.forced.Store(int32(i))
	return nil
}

// Forced reports the forced backend name, "" when routing is model-driven.
func (p *Planner) Forced() string {
	if f := p.forced.Load(); f >= 0 {
		return p.names[f]
	}
	return ""
}

// estimate blends the prior with the observed EWMA — the prior counts as
// PriorWeight observations, so fresh cells follow the cost model and
// well-observed cells follow reality. The overlay surcharge tops up only
// the prior share: measured latencies already include the overlay work, so
// adding the surcharge to the EWMA too would double-count it; instead it
// decays with observations exactly as the prior does.
func (p *Planner) estimate(b, bucket int) float64 {
	c := p.cells[b][bucket]
	if c.count == 0 {
		return p.priors[b][bucket] + p.overlay[b]
	}
	w := p.cfg.PriorWeight
	return (w*(p.priors[b][bucket]+p.overlay[b]) + float64(c.count)*c.ewmaNanos) / (w + float64(c.count))
}

// SetOverlayCost sets the additive per-query cost surcharge (nanoseconds)
// of one backend across all buckets. The hybrid engine keeps it equal to
// the cost of the delta-overlay linear scan its static backends pay per
// query, so cold estimates track the overlay as it grows; once a cell has
// observations (which contain the scan) the surcharge fades with the
// prior. 0 clears it.
func (p *Planner) SetOverlayCost(b int, nanos float64) {
	if b < 0 || b >= len(p.names) {
		return
	}
	p.mu.Lock()
	p.overlay[b] = nanos
	p.mu.Unlock()
}

// Reseed replaces every backend's prior cost curve and discards the
// per-bucket observation cells — the estimate invalidation performed after
// an epoch rebuild, when the observed EWMAs describe physical structures
// that no longer exist. Plan and exploration counters survive (they are
// cumulative scoreboard state, not estimates), as do overlay surcharges
// (the caller re-prices them for the new epoch). priors follows the New
// contract: nil for all-flat, else one (possibly nil) curve per backend.
func (p *Planner) Reseed(priors [][]float64) error {
	if priors == nil {
		priors = make([][]float64, len(p.names))
	}
	if len(priors) != len(p.names) {
		return fmt.Errorf("planner: %d prior curves for %d backends", len(priors), len(p.names))
	}
	p.mu.Lock()
	for b := range p.names {
		p.priors[b] = clampCurve(priors[b], p.cfg.Buckets)
		p.cells[b] = make([]cell, p.cfg.Buckets)
	}
	p.mu.Unlock()
	return nil
}

// Choose picks the backend for a query in the given θ bucket and counts the
// plan. Exploration: every ExploreEvery-th query of a bucket routes to the
// bucket's least-observed backend, so EWMAs of losing backends cannot go
// permanently stale.
func (p *Planner) Choose(bucket int) int {
	if f := p.forced.Load(); f >= 0 {
		p.plans[f].Add(1)
		return int(f)
	}
	if bucket < 0 {
		bucket = 0
	} else if bucket >= p.cfg.Buckets {
		bucket = p.cfg.Buckets - 1
	}
	p.mu.Lock()
	p.seq[bucket]++
	best := 0
	if p.cfg.ExploreEvery > 0 && p.seq[bucket]%uint64(p.cfg.ExploreEvery) == 0 {
		for b := 1; b < len(p.names); b++ {
			if p.cells[b][bucket].count < p.cells[best][bucket].count {
				best = b
			}
		}
	} else {
		best = p.cheapest(bucket)
	}
	p.mu.Unlock()
	p.plans[best].Add(1)
	return best
}

// cheapest is the argmin of the blended estimates in a bucket, ties going to
// the earlier backend. The caller holds p.mu.
func (p *Planner) cheapest(bucket int) int {
	best, bestCost := 0, p.estimate(0, bucket)
	for b := 1; b < len(p.names); b++ {
		if c := p.estimate(b, bucket); c < bestCost {
			best, bestCost = b, c
		}
	}
	return best
}

// Route picks the backend for a query that stays off the exploration
// schedule (the hybrid's KNN, which is not a threshold query): the forced
// backend if one is pinned, else prefer when it names a backend, else the
// bucket's cheapest estimate. The plan is counted, but the bucket's query
// sequence does not advance and no exploration slot is consumed — those
// belong to the range queries whose estimates Observe refines.
func (p *Planner) Route(prefer, bucket int) int {
	best := prefer
	if f := p.forced.Load(); f >= 0 {
		best = int(f)
	} else if prefer < 0 || prefer >= len(p.names) {
		p.mu.Lock()
		best = p.cheapest(min(max(bucket, 0), p.cfg.Buckets-1))
		p.mu.Unlock()
	}
	p.plans[best].Add(1)
	return best
}

// Sequence reports how many queries Choose has counted in the bucket — the
// counter whose every ExploreEvery-th value triggers an exploration.
func (p *Planner) Sequence(bucket int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq[bucket]
}

// Observe feeds one executed query back into the model: latency in
// nanoseconds and the distance calls it performed. An observation landing
// more than 2x over the cell's pre-update blended estimate counts as a
// mispredict — the cost model's routing decision was made on an estimate
// that turned out badly wrong — but only once the cell has prior
// observations; a cold cell's first sample calibrates rather than judges.
func (p *Planner) Observe(b, bucket int, nanos float64, dfc uint64) {
	if b < 0 || b >= len(p.names) {
		return
	}
	if bucket < 0 {
		bucket = 0
	} else if bucket >= p.cfg.Buckets {
		bucket = p.cfg.Buckets - 1
	}
	p.mu.Lock()
	c := &p.cells[b][bucket]
	if c.count > 0 && nanos > 2*p.estimate(b, bucket) {
		p.mispredicts[b].Add(1)
	}
	if c.count == 0 {
		c.ewmaNanos = nanos
		c.ewmaDFC = float64(dfc)
	} else {
		c.ewmaNanos += p.cfg.Alpha * (nanos - c.ewmaNanos)
		c.ewmaDFC += p.cfg.Alpha * (float64(dfc) - c.ewmaDFC)
	}
	c.count++
	p.mu.Unlock()
}

// BackendStats is the observable state of one backend: how often the
// planner picked it and what it cost when it ran.
type BackendStats struct {
	Name string `json:"name"`
	// Plans counts queries routed to the backend since construction.
	Plans uint64 `json:"plans"`
	// Observations counts Observe calls (≥ Plans only during calibration,
	// which observes without planning).
	Observations uint64 `json:"observations"`
	// EWMALatencyNanos is the observation-weighted mean of the per-bucket
	// latency EWMAs, 0 before the first observation.
	EWMALatencyNanos float64 `json:"ewmaLatencyNanos"`
	// EWMADistanceCalls is the observation-weighted mean of the per-bucket
	// DFC EWMAs.
	EWMADistanceCalls float64 `json:"ewmaDistanceCalls"`
	// Mispredicts counts observations that landed more than 2x over the
	// blended estimate current at observation time.
	Mispredicts uint64 `json:"mispredicts,omitempty"`
}

// Stats snapshots every backend's plan counter and blended observations.
func (p *Planner) Stats() []BackendStats {
	out := make([]BackendStats, len(p.names))
	p.mu.Lock()
	for b, name := range p.names {
		st := BackendStats{Name: name, Plans: p.plans[b].Load(), Mispredicts: p.mispredicts[b].Load()}
		var wNanos, wDFC float64
		for _, c := range p.cells[b] {
			st.Observations += c.count
			wNanos += float64(c.count) * c.ewmaNanos
			wDFC += float64(c.count) * c.ewmaDFC
		}
		if st.Observations > 0 {
			st.EWMALatencyNanos = wNanos / float64(st.Observations)
			st.EWMADistanceCalls = wDFC / float64(st.Observations)
		}
		out[b] = st
	}
	p.mu.Unlock()
	return out
}

// ---------------------------------------------------------------------------
// Cost-model priors
// ---------------------------------------------------------------------------

// Priors derives per-bucket prior cost curves (nanoseconds per query) for
// the hybrid engine's two backends from the Section 5 cost model. The
// formulas reuse the model's calibrated micro-costs and its Zipf-skew
// statistic and are deliberately coarse: they only have to rank the two
// plausibly per bucket; the EWMA refinement converges on the truth. The
// modeled shapes follow the paper's measurements:
//
//   - inverted (F&V+Drop): reads the k−ω+1 shortest lists and validates
//     every candidate; cost grows stepwise as the Lemma 2 overlap bound ω
//     loosens with θ, and is otherwise radius-insensitive (Figure 8's flat
//     tail).
//   - adaptsearch: the ℓ-prefix scheme scans p = k−ω+1 of the k positional
//     delta lists per query item: ~p² short lists plus verification of the
//     candidates that survive the prefix count.
func Priors(m *costmodel.Model, buckets int) map[string][]float64 {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	k := m.K
	dmax := ranking.MaxDistance(k)
	// Expected probed-list length with the whole collection indexed
	// (medoids = n).
	listLen := m.ExpectedListLength(float64(m.N))
	out := map[string][]float64{
		BackendInverted:    make([]float64, buckets),
		BackendAdaptSearch: make([]float64, buckets),
	}
	for i := 0; i < buckets; i++ {
		// Bucket midpoint in normalized θ, then raw.
		theta := (float64(i) + 0.5) / float64(buckets)
		raw := int(theta * float64(dmax))
		omega := ranking.RequiredOverlap(raw, k)
		if omega < 1 {
			omega = 1
		}
		kept := float64(k - omega + 1)

		cands := kept * listLen // union bound on distinct candidates
		out[BackendInverted][i] = m.CostMergeBase*kept +
			cands*m.CostMergePerPosting + cands*m.CostFootrule

		// p² positional lists of expected length listLen/k each, then
		// verification of the candidates that reach the prefix count
		// (modeled as half the collected ids).
		scans := kept * kept * (listLen / float64(k))
		out[BackendAdaptSearch][i] = m.CostMergeBase*kept +
			scans*m.CostMergePerPosting + 0.5*scans*m.CostFootrule
	}
	return out
}
