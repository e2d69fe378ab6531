package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"topk"
	"topk/internal/admit"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// TenantsRecord is one (mode, tenant) measurement of the noisy-neighbor
// experiment: two tenants share one server's admission capacity, one floods,
// one sends paced traffic, and the records compare the paced tenant's fate
// with and without per-tenant weighted carves. These are the JSON rows
// topkbench -experiment tenants -json writes (BENCH_tenants.json).
type TenantsRecord struct {
	Dataset string `json:"dataset"`
	// Mode is "shared" (both tenants contend on the one global controller —
	// the pre-registry behavior) or "per-tenant" (each tenant first passes
	// its own weighted carve, the way topkserve admits collections created
	// with a weight).
	Mode string `json:"mode"`
	// Tenant is "flooded" (offered Factor x sustainable) or "paced"
	// (offered PacedFraction x sustainable — a well-behaved neighbor).
	Tenant string  `json:"tenant"`
	Weight float64 `json:"weight,omitempty"`
	N      int     `json:"n"`
	K      int     `json:"k"`
	Theta  float64 `json:"theta"`
	// SustainablePerSec is the calibrated closed-loop throughput of one
	// tenant's index; both tenants' offered rates are derived from it.
	SustainablePerSec float64 `json:"sustainablePerSec"`
	OfferedPerSec     float64 `json:"offeredPerSec"`
	Factor            float64 `json:"factor"`
	Arrivals          int     `json:"arrivals"`
	Accepted          int     `json:"accepted"`
	Shed              int     `json:"shed"`
	// Capacity is the shared admission bound both tenants draw from.
	Capacity int64 `json:"capacity"`
	// Accepted-request latency from the SCHEDULED arrival instant (queueing
	// included), the latency a client of that tenant would see.
	AcceptedP50Micros float64 `json:"acceptedP50Micros"`
	AcceptedP95Micros float64 `json:"acceptedP95Micros"`
	AcceptedP99Micros float64 `json:"acceptedP99Micros"`
	WallMs            float64 `json:"wallMs"`
}

// TenantsConfig parameterizes the experiment; zero fields pick defaults.
type TenantsConfig struct {
	Theta float64 // range threshold (default 0.2)
	// Factor is the flooded tenant's offered rate as a multiple of
	// sustainable (default 4); PacedFraction the paced tenant's (default
	// 0.25 — comfortably below capacity).
	Factor        float64
	PacedFraction float64
	// FloodArrivals bounds the flooded tenant's arrival count (default
	// 2000); the paced tenant gets proportionally fewer so both loops span
	// the same wall-clock window and genuinely contend.
	FloodArrivals int
	Capacity      int64         // shared admission bound (default 2 x GOMAXPROCS)
	MaxQueue      int           // shared queue bound (default 4 x Capacity)
	MaxWait       time.Duration // queue-wait bound, carves included (default 25ms)
	Weight        float64       // per-tenant carve weight (default 0.5)
}

func (c *TenantsConfig) defaults() {
	if c.Theta == 0 {
		c.Theta = 0.2
	}
	if c.Factor == 0 {
		c.Factor = 4
	}
	if c.PacedFraction == 0 {
		c.PacedFraction = 0.25
	}
	if c.FloodArrivals == 0 {
		c.FloodArrivals = 2000
	}
	if c.Capacity == 0 {
		c.Capacity = int64(2 * runtime.GOMAXPROCS(0))
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = int(4 * c.Capacity)
	}
	if c.MaxWait == 0 {
		c.MaxWait = 25 * time.Millisecond
	}
	if c.Weight == 0 {
		c.Weight = 0.5
	}
}

// tenantLoad is one tenant's open-loop arrival schedule against its own
// index, admitted through acquire.
type tenantLoad struct {
	name     string
	sh       *shard.Sharded
	offered  float64
	arrivals int
	acquire  func(ctx context.Context) (func(), error)
}

// Tenants is the noisy-neighbor experiment: two tenants with identical
// indexes share one admission capacity; one floods at Factor x sustainable,
// the other sends paced traffic at PacedFraction x sustainable,
// concurrently. In "shared" mode both contend on the global controller —
// the flood fills the queue and the paced tenant starves behind it. In
// "per-tenant" mode each tenant first passes its own weighted carve (the
// registry's admission path for collections created with a weight), so the
// flood queues and sheds at its OWN carve and the paced tenant's latency
// stays near its uncontended baseline. The paced rows of the two modes are
// the comparison that justifies per-collection admission weights.
func Tenants(env *Env, cfg TenantsConfig) ([]TenantsRecord, Table, error) {
	cfg.defaults()
	// Same shard floor as Overload, same reason: the scatter/gather is the
	// scheduling point that lets arrivals overlap inside the admission
	// window.
	numShards := runtime.GOMAXPROCS(0)
	if numShards < 4 {
		numShards = 4
	}
	build := func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithThetaC(0.5))
	}
	// One index per tenant, like one collection per tenant: the contention
	// under study is for admission slots (and ultimately CPU), not index
	// locks.
	flooded, err := shard.New(env.Rankings, numShards, build)
	if err != nil {
		return nil, Table{}, err
	}
	paced, err := shard.New(env.Rankings, numShards, build)
	if err != nil {
		return nil, Table{}, err
	}
	sustainable, err := calibrateRate(flooded, env, cfg.Theta)
	if err != nil {
		return nil, Table{}, err
	}

	floodRate := cfg.Factor * sustainable
	paceRate := cfg.PacedFraction * sustainable
	// Both loops span the same wall-clock window so they genuinely contend.
	pacedArrivals := int(float64(cfg.FloodArrivals) * paceRate / floodRate)
	if pacedArrivals < 16 {
		pacedArrivals = 16
	}

	var recs []TenantsRecord
	for _, mode := range []string{"shared", "per-tenant"} {
		global := admit.New(cfg.Capacity, cfg.MaxQueue, cfg.MaxWait)
		admitVia := func(carve *admit.Controller) func(ctx context.Context) (func(), error) {
			return func(ctx context.Context) (func(), error) {
				// The registry's order: the tenant's carve first, so a
				// flooded tenant queues and sheds within its own share,
				// then the shared controller.
				relCarve, err := carve.Acquire(ctx, 1)
				if err != nil {
					return nil, err
				}
				relGlobal, err := global.Acquire(ctx, 1)
				if err != nil {
					relCarve()
					return nil, err
				}
				return func() { relGlobal(); relCarve() }, nil
			}
		}
		var floodCarve, paceCarve *admit.Controller // nil in shared mode: no-op carves
		weight := 0.0
		if mode == "per-tenant" {
			weight = cfg.Weight
			floodCarve = admit.NewWeighted(global, weight, cfg.MaxWait)
			paceCarve = admit.NewWeighted(global, weight, cfg.MaxWait)
		}
		loads := []tenantLoad{
			{name: "flooded", sh: flooded, offered: floodRate, arrivals: cfg.FloodArrivals, acquire: admitVia(floodCarve)},
			{name: "paced", sh: paced, offered: paceRate, arrivals: pacedArrivals, acquire: admitVia(paceCarve)},
		}
		modeRecs, err := tenantsRun(env, cfg, loads)
		if err != nil {
			return nil, Table{}, fmt.Errorf("tenants %s: %w", mode, err)
		}
		for i := range modeRecs {
			modeRecs[i].Mode = mode
			modeRecs[i].Weight = weight
			modeRecs[i].SustainablePerSec = sustainable
			modeRecs[i].Capacity = cfg.Capacity
		}
		recs = append(recs, modeRecs...)
	}

	t := Table{
		Title: fmt.Sprintf("Noisy neighbor (%s, n=%d, θ=%.1f, flood=%.0fx / paced=%.2fx sustainable, capacity=%d)",
			env.Name, len(env.Rankings), cfg.Theta, cfg.Factor, cfg.PacedFraction, cfg.Capacity),
		Columns: []string{"mode", "tenant", "arrivals", "accepted", "shed",
			"p50 µs", "p95 µs", "p99 µs"},
	}
	for _, r := range recs {
		t.Rows = append(t.Rows, []string{
			r.Mode, r.Tenant, fmt.Sprint(r.Arrivals), fmt.Sprint(r.Accepted), fmt.Sprint(r.Shed),
			fmt.Sprintf("%.0f", r.AcceptedP50Micros),
			fmt.Sprintf("%.0f", r.AcceptedP95Micros),
			fmt.Sprintf("%.0f", r.AcceptedP99Micros),
		})
	}
	t.Notes = []string{
		"both tenants run CONCURRENTLY against one shared admission capacity",
		"shared = one global controller; per-tenant = each tenant passes its own 0.5-weight carve first (the registry's path)",
		"the claim: carves confine the flood's queueing to its own carve, keeping the paced tenant's tail bounded",
	}
	return recs, t, nil
}

// tenantsRun fires every load's open-loop schedule concurrently from one
// shared start instant and returns a record per tenant.
func tenantsRun(env *Env, cfg TenantsConfig, loads []tenantLoad) ([]TenantsRecord, error) {
	type result struct {
		lat      []time.Duration
		accepted []bool
		errs     []error
		wall     time.Duration
	}
	results := make([]result, len(loads))
	var all sync.WaitGroup
	start := time.Now()
	for li := range loads {
		all.Add(1)
		go func(li int) {
			defer all.Done()
			ld := loads[li]
			res := result{
				lat:      make([]time.Duration, ld.arrivals),
				accepted: make([]bool, ld.arrivals),
				errs:     make([]error, ld.arrivals),
			}
			rng := rand.New(rand.NewSource(int64(li)*977 + 7))
			queries := make([]ranking.Ranking, ld.arrivals)
			for i := range queries {
				queries[i] = env.Queries[rng.Intn(len(env.Queries))]
			}
			interval := time.Duration(float64(time.Second) / ld.offered)
			var wg sync.WaitGroup
			// Burst-corrected pacing, same as overloadRun: every wake-up
			// dispatches every arrival whose scheduled instant has passed.
			dispatch := func(i int, scheduled time.Time) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					release, err := ld.acquire(context.Background())
					if err != nil {
						return // shed: accepted[i] stays false
					}
					defer release()
					if _, err := ld.sh.SearchContext(context.Background(), queries[i], cfg.Theta); err != nil {
						res.errs[i] = err
						return
					}
					res.accepted[i] = true
					res.lat[i] = time.Since(scheduled)
				}()
			}
			for i := 0; i < ld.arrivals; {
				due := int(time.Since(start)/interval) + 1
				if due > ld.arrivals {
					due = ld.arrivals
				}
				for ; i < due; i++ {
					dispatch(i, start.Add(time.Duration(i)*interval))
				}
				if i < ld.arrivals {
					if d := time.Duration(i)*interval - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				}
			}
			wg.Wait()
			res.wall = time.Since(start)
			results[li] = res
		}(li)
	}
	all.Wait()

	recs := make([]TenantsRecord, len(loads))
	for li, ld := range loads {
		res := results[li]
		rec := TenantsRecord{
			Dataset:       env.Name,
			Tenant:        ld.name,
			N:             len(env.Rankings),
			K:             env.Cfg.K,
			Theta:         cfg.Theta,
			OfferedPerSec: ld.offered,
			Factor:        cfg.Factor,
			Arrivals:      ld.arrivals,
			WallMs:        float64(res.wall.Nanoseconds()) / 1e6,
		}
		var acc []time.Duration
		for i := range res.accepted {
			if res.errs[i] != nil {
				return nil, res.errs[i]
			}
			if res.accepted[i] {
				acc = append(acc, res.lat[i])
			}
		}
		rec.Accepted = len(acc)
		rec.Shed = ld.arrivals - len(acc)
		rec.AcceptedP50Micros = micros(pct(acc, 0.50))
		rec.AcceptedP95Micros = micros(pct(acc, 0.95))
		rec.AcceptedP99Micros = micros(pct(acc, 0.99))
		recs[li] = rec
	}
	return recs, nil
}
