package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"topk"
	"topk/internal/admit"
	"topk/internal/qcache"
	"topk/internal/shard"
	"topk/internal/telemetry"
	"topk/internal/wal"
)

// serverStats is the part of GET /stats the harness reads, in the server's
// own types wherever they are exported.
type serverStats struct {
	N             int                     `json:"n"`
	Queries       uint64                  `json:"queries"`
	KNNQueries    uint64                  `json:"knnQueries"`
	Delta         int                     `json:"delta"`
	Rebuilds      uint64                  `json:"rebuilds"`
	DistanceCalls uint64                  `json:"distanceCalls"`
	Fanout        shard.HistogramSnapshot `json:"fanout"`
	Merge         shard.HistogramSnapshot `json:"merge"`
	Planner       []topk.PlanStats        `json:"planner"`
	Shards        []shard.ShardStats      `json:"shards"`
	WAL           *walStats               `json:"wal"`
	Admission     *admit.Stats            `json:"admission"`
	Cache         *qcache.Stats           `json:"cache"`
}

type walStats struct {
	Replayed int `json:"replayed"`
	wal.Stats
}

// scrape is one reading of the server's counters: /stats plus the one family
// only /metrics carries.
type scrape struct {
	serverStats
	rebuildSeconds float64
}

func scrapeServer(c *client) (scrape, error) {
	var s scrape
	if err := c.getJSON("/stats", &s.serverStats); err != nil {
		return s, err
	}
	// A server run without a cache, admission control or a WAL leaves the
	// section out; its counters then read as zero.
	if s.Cache == nil {
		s.Cache = new(qcache.Stats)
	}
	if s.Admission == nil {
		s.Admission = new(admit.Stats)
	}
	if s.WAL == nil {
		s.WAL = new(walStats)
	}
	status, body, err := c.do(http.MethodGet, "/metrics", nil, "")
	if err != nil || status != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	s.rebuildSeconds = promSum(string(body), "topkserve_epoch_rebuild_seconds_total")
	return s, nil
}

// promSum adds up every sample of one family in a Prometheus text exposition.
func promSum(text, family string) (sum float64) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// histDelta returns the observations of after that were not yet in before,
// so that a quantile covers the measured phase alone and not the warm-up.
// The server's histograms only grow, bucket by bucket.
func histDelta(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{
		Bounds: after.Bounds, Counts: append([]uint64(nil), after.Counts...),
		Count: after.Count - before.Count, Sum: after.Sum - before.Sum,
	}
	for i := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// micros recasts the shard router's microsecond histogram (buckets trimmed
// to the highest one used) in the telemetry shape, so both kinds subtract
// and interpolate through one estimator.
func micros(s shard.HistogramSnapshot) telemetry.HistogramSnapshot {
	h := telemetry.HistogramSnapshot{Counts: s.Buckets, Count: s.Count, Sum: s.SumMicros,
		Bounds: make([]float64, len(s.BucketBoundsMicros))}
	for i, b := range s.BucketBoundsMicros {
		h.Bounds[i] = float64(b)
	}
	return h
}

// plans returns the planner's plan, observation and mispredict counters that
// were added between two scrapes, by backend.
func (s scrape) plans(before scrape) (plans map[string]uint64, observations, mispredicts uint64) {
	plans = make(map[string]uint64)
	prev := make(map[string]topk.PlanStats)
	for _, p := range before.Planner {
		prev[p.Backend] = p
	}
	for _, p := range s.Planner {
		b := prev[p.Backend]
		plans[p.Backend] = p.Plans - b.Plans
		observations += p.Observations - b.Observations
		mispredicts += p.Mispredicts - b.Mispredicts
	}
	return plans, observations, mispredicts
}
