package planner

import (
	"testing"

	"topk/internal/costmodel"
	"topk/internal/difftest"
	"topk/internal/stats"

	"math/rand"
)

// twoBackendPlanner builds a planner where "low" is cheap in the bottom
// half of the theta range and "high" in the top half.
func twoBackendPlanner(t *testing.T, cfg Config) *Planner {
	t.Helper()
	cfg.Buckets = 8
	low := make([]float64, cfg.Buckets)
	high := make([]float64, cfg.Buckets)
	for i := range low {
		if i < cfg.Buckets/2 {
			low[i], high[i] = 10, 100
		} else {
			low[i], high[i] = 100, 10
		}
	}
	p, err := New([]string{"low", "high"}, [][]float64{low, high}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBucketMapping(t *testing.T) {
	p := twoBackendPlanner(t, Config{})
	cases := []struct {
		theta float64
		want  int
	}{
		{-1, 0}, {0, 0}, {0.05, 0}, {0.13, 1}, {0.5, 4}, {0.99, 7}, {1, 7}, {2, 7},
	}
	for _, c := range cases {
		if got := p.Bucket(c.theta); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.theta, got, c.want)
		}
	}
}

func TestChooseFollowsPriors(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: 0})
	if got := p.Choose(0); p.names[got] != "low" {
		t.Fatalf("bucket 0 routed to %q, want low", p.names[got])
	}
	if got := p.Choose(7); p.names[got] != "high" {
		t.Fatalf("bucket 7 routed to %q, want high", p.names[got])
	}
	if st := p.Stats(); st[0].Plans != 1 || st[1].Plans != 1 {
		t.Fatalf("plans = %d/%d, want 1/1", st[0].Plans, st[1].Plans)
	}
}

func TestObservationsOverridePrior(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: 0, PriorWeight: 2})
	// "low" is the prior favourite of bucket 0, but reality disagrees: feed
	// slow observations for low, fast ones for high.
	for i := 0; i < 50; i++ {
		p.Observe(0, 0, 5000, 10) // low: slow
		p.Observe(1, 0, 20, 1)    // high: fast
	}
	if got := p.Choose(0); p.names[got] != "high" {
		t.Fatalf("bucket 0 still routed to %q after contradicting observations", p.names[got])
	}
	// Other buckets are untouched: the prior still rules bucket 1.
	if got := p.Choose(1); p.names[got] != "low" {
		t.Fatalf("bucket 1 routed to %q, want low", p.names[got])
	}
}

func TestForce(t *testing.T) {
	p := twoBackendPlanner(t, Config{})
	if err := p.Force("nope"); err == nil {
		t.Fatal("Force accepted an unknown backend")
	}
	if err := p.Force("high"); err != nil {
		t.Fatal(err)
	}
	if p.Forced() != "high" {
		t.Fatalf("Forced = %q", p.Forced())
	}
	for bucket := 0; bucket < p.Buckets(); bucket++ {
		if got := p.Choose(bucket); p.names[got] != "high" {
			t.Fatalf("forced planner routed bucket %d to %q", bucket, p.names[got])
		}
	}
	if err := p.Force(""); err != nil {
		t.Fatal(err)
	}
	if p.Forced() != "" {
		t.Fatalf("Forced = %q after release", p.Forced())
	}
	if got := p.Choose(0); p.names[got] != "low" {
		t.Fatal("routing did not resume after Force(\"\")")
	}
}

func TestExplorationVisitsLoser(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: 4})
	// Route 40 bucket-0 queries, observing only what was chosen. Without
	// exploration "high" would never run; with ExploreEvery=4 it must.
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		b := p.Choose(0)
		counts[p.names[b]]++
		p.Observe(b, 0, 100, 1)
	}
	if counts["high"] == 0 {
		t.Fatalf("exploration never probed the losing backend: %v", counts)
	}
	if counts["low"] <= counts["high"] {
		t.Fatalf("exploration dominated routing: %v", counts)
	}
}

// TestRouteStaysOffTheExplorationSchedule checks the routing of queries that
// are not range queries (the hybrid's KNN): forced wins, then the preferred
// backend, then the cheapest estimate; plans are counted; and ten exploration
// periods of Route calls neither advance bucket 0's sequence nor reach the
// least-observed backend, so Choose's next exploration is still its own 4th
// query.
func TestRouteStaysOffTheExplorationSchedule(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: 4})
	for i := 0; i < 40; i++ {
		if got := p.Route(-1, 0); p.names[got] != "low" {
			t.Fatalf("Route(-1, 0) call %d picked %q, want the cheapest (low)", i, p.names[got])
		}
	}
	if got := p.Route(-1, 7); p.names[got] != "high" {
		t.Fatalf("Route(-1, 7) picked %q, want high", p.names[got])
	}
	if got := p.Route(1, 0); p.names[got] != "high" {
		t.Fatalf("Route(1, 0) picked %q, want the preferred backend", p.names[got])
	}
	if err := p.Force("low"); err != nil {
		t.Fatal(err)
	}
	if got := p.Route(1, 0); p.names[got] != "low" {
		t.Fatalf("Route under Force(low) picked %q", p.names[got])
	}
	if err := p.Force(""); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st[0].Plans != 41 || st[1].Plans != 2 {
		t.Fatalf("plans = %d/%d, want 41/2", st[0].Plans, st[1].Plans)
	}
	if st[0].Observations+st[1].Observations != 0 {
		t.Fatal("Route recorded observations")
	}
	if seq := p.Sequence(0); seq != 0 {
		t.Fatalf("Route advanced bucket 0's sequence to %d", seq)
	}
	for i := 1; i <= 4; i++ {
		want := "low"
		if i == 4 {
			want = "high" // the exploration slot, still on Choose's own count
		}
		b := p.Choose(0)
		if p.names[b] != want {
			t.Fatalf("Choose call %d after the Route traffic picked %q, want %s", i, p.names[b], want)
		}
		if p.names[b] == "low" {
			p.Observe(b, 0, 10, 1)
		}
	}
}

func TestStatsAggregates(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: 0})
	p.Choose(0)
	p.Observe(0, 0, 1000, 7)
	p.Observe(0, 0, 1000, 7)
	st := p.Stats()
	if len(st) != 2 {
		t.Fatalf("stats for %d backends", len(st))
	}
	if st[0].Name != "low" || st[0].Plans != 1 || st[0].Observations != 2 {
		t.Fatalf("unexpected stats: %+v", st[0])
	}
	if st[0].EWMALatencyNanos != 1000 || st[0].EWMADistanceCalls != 7 {
		t.Fatalf("unexpected EWMAs: %+v", st[0])
	}
	if st[1].Plans != 0 || st[1].Observations != 0 || st[1].EWMALatencyNanos != 0 {
		t.Fatalf("phantom stats for unused backend: %+v", st[1])
	}
}

// TestPriorsShape fits the cost model to a synthetic Zipf collection and
// checks the derived curves: exactly the hybrid's two backends, all costs
// positive, and both curves non-decreasing in θ (the overlap bound only
// loosens, so both read more lists).
func TestPriorsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := difftest.RandomCollection(rng, 500, 10, 400)
	cdf := stats.SampleDistances(rs, 5000, 1)
	freqs := stats.ItemFrequencies(rs)
	m, err := costmodel.New(len(rs), 10, len(freqs), 0.8, cdf)
	if err != nil {
		t.Fatal(err)
	}
	curves := Priors(m, 8)
	if len(curves) != 2 {
		t.Fatalf("%d prior curves, want 2", len(curves))
	}
	for _, name := range []string{BackendInverted, BackendAdaptSearch} {
		c := curves[name]
		if len(c) != 8 {
			t.Fatalf("%s: %d buckets", name, len(c))
		}
		for i, v := range c {
			if v <= 0 {
				t.Fatalf("%s bucket %d: cost %v", name, i, v)
			}
			if i > 0 && v < c[i-1] {
				t.Fatalf("%s prior decreases at bucket %d: %v", name, i, c)
			}
		}
	}
}

// TestOverlayCost checks the additive surcharge: it flips routing away from
// an otherwise-cheaper backend, and clearing it flips routing back.
func TestOverlayCost(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: -1})
	if got := p.Choose(0); got != 0 {
		t.Fatalf("bucket 0 routed to %d before surcharge, want 0", got)
	}
	// Charge "low" more than its prior advantage: "high" must win.
	p.SetOverlayCost(0, 1000)
	if got := p.Choose(0); got != 1 {
		t.Fatalf("bucket 0 routed to %d with surcharged backend 0, want 1", got)
	}
	p.SetOverlayCost(0, 0)
	if got := p.Choose(0); got != 0 {
		t.Fatalf("bucket 0 routed to %d after clearing the surcharge, want 0", got)
	}
	// Out-of-range backends are ignored, not panics.
	p.SetOverlayCost(-1, 5)
	p.SetOverlayCost(99, 5)
}

// TestReseed checks the estimate invalidation: observations that overrode
// the priors are discarded, new prior curves take over immediately, and the
// cumulative plan counters survive.
func TestReseed(t *testing.T) {
	p := twoBackendPlanner(t, Config{ExploreEvery: -1, PriorWeight: 0.001})
	// Teach the planner that "high" is actually cheap in bucket 0.
	for i := 0; i < 50; i++ {
		p.Observe(0, 0, 1e6, 10)
		p.Observe(1, 0, 1, 1)
	}
	if got := p.Choose(0); got != 1 {
		t.Fatalf("observations not dominating: routed to %d, want 1", got)
	}
	plansBefore := p.Stats()[1].Plans

	// Reseed with curves that invert the original preference: with the
	// cells cleared, bucket 0 must follow the new priors, not the EWMA.
	low := []float64{500}
	high := []float64{20}
	if err := p.Reseed([][]float64{low, high}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st[0].Observations != 0 || st[1].Observations != 0 {
		t.Fatalf("Reseed kept observations: %+v", st)
	}
	if st[1].Plans != plansBefore {
		t.Fatalf("Reseed lost plan counters: %d, want %d", st[1].Plans, plansBefore)
	}
	if got := p.Choose(3); got != 1 {
		t.Fatalf("post-reseed bucket 3 routed to %d, want 1 (new priors)", got)
	}

	// Curve-count mismatch is rejected; nil selects flat priors.
	if err := p.Reseed([][]float64{low}); err == nil {
		t.Fatal("Reseed accepted a short prior list")
	}
	if err := p.Reseed(nil); err != nil {
		t.Fatal(err)
	}
}
