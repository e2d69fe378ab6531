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

// OverloadRecord is one machine-readable measurement of the open-loop
// overload experiment: what happens when queries arrive faster than the
// index can answer them, with and without admission control. These are the
// JSON rows topkbench -experiment overload -json writes (BENCH_overload.json).
type OverloadRecord struct {
	Dataset string `json:"dataset"`
	// Mode is "admission" (bounded concurrency + bounded queue, excess shed)
	// or "unbounded" (every arrival starts searching immediately — the
	// pre-admission behavior).
	Mode  string  `json:"mode"`
	N     int     `json:"n"`
	K     int     `json:"k"`
	Theta float64 `json:"theta"`
	// SustainablePerSec is the calibrated closed-loop throughput the offered
	// load is derived from; OfferedPerSec = Factor x sustainable.
	SustainablePerSec float64 `json:"sustainablePerSec"`
	OfferedPerSec     float64 `json:"offeredPerSec"`
	Factor            float64 `json:"factor"`
	Arrivals          int     `json:"arrivals"`
	Accepted          int     `json:"accepted"`
	Shed              int     `json:"shed"`
	// Capacity and queue bound of the admission mode (0 for unbounded).
	Capacity int64 `json:"capacity,omitempty"`
	MaxQueue int   `json:"maxQueue,omitempty"`
	// Accepted-request latency measured open-loop: from the SCHEDULED arrival
	// instant (not dispatch) to completion, so queueing delay is included —
	// the latency a real client would see.
	AcceptedP50Micros float64 `json:"acceptedP50Micros"`
	AcceptedP95Micros float64 `json:"acceptedP95Micros"`
	AcceptedP99Micros float64 `json:"acceptedP99Micros"`
	WallMs            float64 `json:"wallMs"`
}

// OverloadConfig parameterizes the experiment; zero fields pick defaults.
type OverloadConfig struct {
	Theta    float64       // range threshold (default 0.2)
	Factor   float64       // offered rate as a multiple of sustainable (default 4)
	Arrivals int           // arrivals per mode (default 2000)
	Capacity int64         // admission concurrency bound (default 2 x GOMAXPROCS)
	MaxQueue int           // admission queue bound (default 4 x Capacity)
	MaxWait  time.Duration // admission queue-wait bound (default 25ms)
}

func (c *OverloadConfig) defaults() {
	if c.Theta == 0 {
		c.Theta = 0.2
	}
	if c.Factor == 0 {
		c.Factor = 4
	}
	if c.Arrivals == 0 {
		c.Arrivals = 2000
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
}

// Overload drives an open-loop query flood against a sharded coarse index —
// arrivals come at a fixed rate regardless of completions, the way real
// traffic does — once with admission control (topkserve's semaphore + queue
// + shed path) and once unbounded. The point the records make: with
// admission the accepted requests keep a bounded p99 and the excess is shed
// explicitly; unbounded, every request is "accepted" and the tail grows with
// the backlog.
func Overload(env *Env, cfg OverloadConfig) ([]OverloadRecord, Table, error) {
	cfg.defaults()
	// At least 4 shards even on a single-core box: the fan-out is what
	// topkserve runs, and its scatter/gather is also the scheduling point
	// that lets arrivals overlap inside the admission window — a 1-shard
	// search never yields the processor, so on GOMAXPROCS=1 requests would
	// serialize and the semaphore would never see contention.
	numShards := runtime.GOMAXPROCS(0)
	if numShards < 4 {
		numShards = 4
	}
	sh, err := shard.New(env.Rankings, numShards, func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithThetaC(0.5))
	})
	if err != nil {
		return nil, Table{}, err
	}

	// Calibrate: closed-loop sustainable throughput with one worker per core.
	sustainable, err := calibrateRate(sh, env, cfg.Theta)
	if err != nil {
		return nil, Table{}, err
	}
	offered := cfg.Factor * sustainable

	var recs []OverloadRecord
	for _, mode := range []string{"admission", "unbounded"} {
		var ctl *admit.Controller
		if mode == "admission" {
			ctl = admit.New(cfg.Capacity, cfg.MaxQueue, cfg.MaxWait)
		}
		rec, err := overloadRun(sh, env, cfg, ctl, offered)
		if err != nil {
			return nil, Table{}, fmt.Errorf("overload %s: %w", mode, err)
		}
		rec.Mode = mode
		rec.SustainablePerSec = sustainable
		if ctl != nil {
			rec.Capacity = cfg.Capacity
			rec.MaxQueue = cfg.MaxQueue
		}
		recs = append(recs, rec)
	}

	t := Table{
		Title: fmt.Sprintf("Open-loop overload (%s, n=%d, θ=%.1f, offered=%.0f/s = %.0fx sustainable)",
			env.Name, len(env.Rankings), cfg.Theta, offered, cfg.Factor),
		Columns: []string{"mode", "arrivals", "accepted", "shed",
			"p50 µs", "p95 µs", "p99 µs", "wall ms"},
	}
	for _, r := range recs {
		t.Rows = append(t.Rows, []string{
			r.Mode, fmt.Sprint(r.Arrivals), fmt.Sprint(r.Accepted), fmt.Sprint(r.Shed),
			fmt.Sprintf("%.0f", r.AcceptedP50Micros),
			fmt.Sprintf("%.0f", r.AcceptedP95Micros),
			fmt.Sprintf("%.0f", r.AcceptedP99Micros),
			fmt.Sprintf("%.0f", r.WallMs),
		})
	}
	t.Notes = []string{
		"latency measured from the scheduled arrival instant (queueing included)",
		"admission = topkserve's semaphore+queue+shed path; unbounded = every arrival searches immediately",
		"the claim: admission keeps accepted p99 bounded by shedding the excess as 429s",
	}
	return recs, t, nil
}

// calibrateRate measures closed-loop throughput: GOMAXPROCS workers each
// draining queries as fast as the index answers.
func calibrateRate(sh *shard.Sharded, env *Env, theta float64) (float64, error) {
	workers := runtime.GOMAXPROCS(0)
	perWorker := 32
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 101))
			for i := 0; i < perWorker; i++ {
				q := env.Queries[rng.Intn(len(env.Queries))]
				if _, err := sh.SearchContext(context.Background(), q, theta); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	return float64(workers*perWorker) / elapsed.Seconds(), nil
}

// overloadRun fires cfg.Arrivals queries at the offered rate. Each arrival
// is dispatched on schedule in its own goroutine (open loop: a slow index
// never throttles the arrival process); with a controller the arrival first
// passes admission and counts as shed when it is refused.
func overloadRun(sh *shard.Sharded, env *Env, cfg OverloadConfig, ctl *admit.Controller, offered float64) (OverloadRecord, error) {
	interval := time.Duration(float64(time.Second) / offered)
	lat := make([]time.Duration, cfg.Arrivals)
	accepted := make([]bool, cfg.Arrivals)
	errs := make([]error, cfg.Arrivals)
	rng := rand.New(rand.NewSource(7))
	queries := make([]ranking.Ranking, cfg.Arrivals)
	for i := range queries {
		queries[i] = env.Queries[rng.Intn(len(env.Queries))]
	}

	var wg sync.WaitGroup
	start := time.Now()
	// Burst-corrected open-loop pacing: time.Sleep overshoots by tens of
	// microseconds, which at a microsecond-scale interval would silently
	// throttle the offered rate to the sleep granularity. Instead, every
	// wake-up dispatches EVERY arrival whose scheduled instant has passed,
	// so the configured rate holds on average no matter how coarse sleep is.
	dispatch := func(i int, scheduled time.Time) {
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			if ctl != nil {
				release, err := ctl.Acquire(context.Background(), 1)
				if err != nil {
					return // shed: accepted[i] stays false
				}
				defer release()
			}
			if _, err := sh.SearchContext(context.Background(), queries[i], cfg.Theta); err != nil {
				errs[i] = err
				return
			}
			accepted[i] = true
			lat[i] = time.Since(scheduled)
		}(i, scheduled)
	}
	for i := 0; i < cfg.Arrivals; {
		due := int(time.Since(start)/interval) + 1
		if due > cfg.Arrivals {
			due = cfg.Arrivals
		}
		for ; i < due; i++ {
			dispatch(i, start.Add(time.Duration(i)*interval))
		}
		if i < cfg.Arrivals {
			if d := time.Duration(i)*interval - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
	}
	wg.Wait()
	wall := time.Since(start)

	rec := OverloadRecord{
		Dataset:       env.Name,
		N:             len(env.Rankings),
		K:             env.Cfg.K,
		Theta:         cfg.Theta,
		OfferedPerSec: offered,
		Factor:        cfg.Factor,
		Arrivals:      cfg.Arrivals,
		WallMs:        float64(wall.Nanoseconds()) / 1e6,
	}
	var acc []time.Duration
	for i := range accepted {
		if errs[i] != nil {
			return rec, errs[i]
		}
		if accepted[i] {
			acc = append(acc, lat[i])
		}
	}
	rec.Accepted = len(acc)
	rec.Shed = cfg.Arrivals - len(acc)
	rec.AcceptedP50Micros = micros(pct(acc, 0.50))
	rec.AcceptedP95Micros = micros(pct(acc, 0.95))
	rec.AcceptedP99Micros = micros(pct(acc, 0.99))
	return rec, nil
}
