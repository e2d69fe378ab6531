// GET /stats: the per-collection counters, the hybrid's plan counters and
// storage state as JSON.
package server

import (
	"net/http"
	"time"

	"topk"
	"topk/internal/admit"
	"topk/internal/qcache"
	"topk/internal/shard"
	"topk/internal/wal"
)

type statsResponse struct {
	Index      string `json:"index"`
	N          int    `json:"n"`
	K          int    `json:"k"`
	NumShards  int    `json:"numShards"`
	Queries    uint64 `json:"queries"`
	KNNQueries uint64 `json:"knnQueries"`
	Batches    uint64 `json:"batches"`
	Mutations  uint64 `json:"mutations"`
	// Delta and Rebuilds sum the hybrid engine's mutation-overlay state
	// across shards: rankings awaiting the next epoch rebuild, and epoch
	// rebuilds installed so far. Both stay 0 for the other kinds.
	Delta         int     `json:"delta"`
	Rebuilds      uint64  `json:"rebuilds"`
	DistanceCalls uint64  `json:"distanceCalls"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Fanout and Merge are the cross-shard phase histograms of every
	// fanned-out search: scatter (dispatch until the slowest shard answers)
	// and gather (concatenating per-shard answers).
	Fanout shard.HistogramSnapshot `json:"fanout"`
	Merge  shard.HistogramSnapshot `json:"merge"`
	// Planner counts the queries each backend of the hybrid engine answered,
	// summed across shards; absent for single-backend kinds. (The key
	// predates the removal of the query planner.)
	Planner []topk.PlanStats   `json:"planner,omitempty"`
	Shards  []shard.ShardStats `json:"shards"`
	// WAL reports the durability counters when the collection has a log.
	WAL *walStatsJSON `json:"wal,omitempty"`
	// Storage reports the paged (snapshot v3) storage state of a durable
	// collection: base-mapping size, dirt awaiting the next incremental
	// checkpoint, checkpoint page economy.
	Storage *storageStatsJSON `json:"storage,omitempty"`
	// Admission reports the shared load-shedding semaphore (absent when
	// admission control is disabled with -max-concurrency < 0); Cache the
	// shared query-result cache (absent without -cache-entries).
	Admission *admit.Stats  `json:"admission,omitempty"`
	Cache     *qcache.Stats `json:"cache,omitempty"`
}

// walStatsJSON is the /stats durability section: the log's own counters
// plus what startup recovery replayed.
type walStatsJSON struct {
	Dir      string `json:"dir"`
	Replayed int    `json:"replayed"`
	wal.Stats
}

// aggregatePlanStats sums the per-shard plan counters by backend (every
// hybrid reports the same rows, in topk.HybridBackends order); nil when the
// collection has no hybrid shard.
func aggregatePlanStats(hybrids []*topk.HybridIndex) []topk.PlanStats {
	var out []topk.PlanStats
	for _, h := range hybrids {
		ps := h.PlanStats()
		if out == nil {
			out = ps
			continue
		}
		for i := range ps {
			out[i].Plans += ps[i].Plans
		}
	}
	return out
}

func (s *Server) handleStats(c *Collection, w http.ResponseWriter, r *http.Request) {
	shards := c.sh.Stats()
	delta, rebuilds := 0, uint64(0)
	for _, st := range shards {
		delta += st.Delta
		rebuilds += st.Rebuilds
	}
	var ws *walStatsJSON
	if c.wal != nil {
		ws = &walStatsJSON{Dir: c.wal.Dir(), Replayed: c.walReplayed, Stats: c.wal.Stats()}
	}
	var adm *admit.Stats
	if s.admission != nil {
		a := s.admission.Stats()
		adm = &a
	}
	var cst *qcache.Stats
	if s.cache != nil {
		cc := s.cache.Stats()
		cst = &cc
	}
	fan, mrg := c.sh.Timings()
	writeJSON(w, http.StatusOK, statsResponse{
		Index:         c.opts.Kind,
		N:             c.sh.Len(),
		K:             c.effK(),
		NumShards:     c.sh.NumShards(),
		Queries:       c.queries.Load(),
		KNNQueries:    c.knn.Load(),
		Batches:       c.batches.Load(),
		Mutations:     c.mutations.Load(),
		Delta:         delta,
		Rebuilds:      rebuilds,
		DistanceCalls: c.sh.DistanceCalls(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Fanout:        fan,
		Merge:         mrg,
		Planner:       aggregatePlanStats(c.hybrids),
		Shards:        shards,
		WAL:           ws,
		Storage:       c.storageStats(),
		Admission:     adm,
		Cache:         cst,
	})
}
