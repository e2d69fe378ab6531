// GET /stats: the per-collection counters and storage state as JSON.
package server

import (
	"net/http"
	"time"

	"topk/internal/admit"
	"topk/internal/qcache"
	"topk/internal/wal"
)

type statsResponse struct {
	Index      string `json:"index"`
	N          int    `json:"n"`
	K          int    `json:"k"`
	Queries    uint64 `json:"queries"`
	KNNQueries uint64 `json:"knnQueries"`
	Batches    uint64 `json:"batches"`
	Mutations  uint64 `json:"mutations"`
	// Rebuilds counts the compactions the index has run; Tombstones the
	// deleted rankings awaiting the next one.
	Rebuilds      uint64  `json:"rebuilds"`
	Tombstones    int     `json:"tombstones"`
	DistanceCalls uint64  `json:"distanceCalls"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// WAL reports the durability counters when the collection has a log.
	WAL *walStatsJSON `json:"wal,omitempty"`
	// Storage reports the checkpoint page economy of a durable collection's
	// paged (snapshot v3) storage.
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

func (s *Server) handleStats(c *Collection, w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, statsResponse{
		Index:         c.opts.Kind,
		N:             c.idx.Len(),
		K:             c.idx.K(),
		Queries:       c.queries.Load(),
		KNNQueries:    c.knn.Load(),
		Batches:       c.batches.Load(),
		Mutations:     c.mutations.Load(),
		Rebuilds:      c.idx.Rebuilds(),
		Tombstones:    c.idx.Tombstones(),
		DistanceCalls: c.idx.DistanceCalls(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		WAL:           ws,
		Storage:       c.storageStats(),
		Admission:     adm,
		Cache:         cst,
	})
}
