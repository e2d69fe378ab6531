// Prometheus exposition for the serving core: GET /metrics renders every
// layer of the stack — HTTP front end, per-collection shard routers, hybrid
// engines, WALs — as one text-exposition document.
//
// Two mechanisms keep the search hot path unaffected. The HTTP layer uses
// static instruments (a few atomic operations per request, outside the
// index code entirely). Everything below it reports through scrape-time
// collectors: the collector callbacks pull the snapshots the layers already
// maintain for GET /stats (shard.Stats, the hybrid's plan counters, wal.Stats)
// and render them only when a scraper asks, so serving queries costs
// nothing extra.
//
// Cardinality discipline: every per-collection family carries exactly one
// "collection" label whose values are the registry's live names — bounded
// by the operator's create calls, validated against a 64-character
// alphanumeric pattern. The HTTP families label by registered route pattern
// only; requests matching no pattern collapse onto the single route label
// "other", so path probing cannot mint new label values.
package server

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"topk"
	"topk/internal/shard"
	"topk/internal/telemetry"
)

// serverMetrics bundles the registry and the HTTP-layer instruments.
type serverMetrics struct {
	reg      *telemetry.Registry
	requests *telemetry.CounterVec // route, code
	errors   *telemetry.CounterVec // route, code (4xx/5xx only)
	inflight *telemetry.Gauge
	latency  *telemetry.HistogramVec // route
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("topkserve_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		errors: reg.CounterVec("topkserve_http_errors_total",
			"HTTP requests answered with a 4xx or 5xx status, by route and status code.", "route", "code"),
		inflight: reg.Gauge("topkserve_http_requests_in_flight",
			"HTTP requests currently being handled."),
		latency: reg.HistogramVec("topkserve_http_request_duration_seconds",
			"HTTP request latency, by route.", telemetry.DefLatencyBuckets, "route"),
	}
	telemetry.RegisterRuntime(reg)
	return m
}

// registerCollectors wires the scrape-time side: per-collection counters,
// shard stats, plan counters, rebuild history and WAL counters, each
// labeled with its collection, plus the process-wide admission and cache
// families. Every collector bails while bootstrap is still running — the
// readiness load is also the acquire barrier for the registry (bootstrap
// publishes every collection before ready flips).
func (s *Server) registerCollectors() {
	r := s.metrics.reg
	r.GaugeFunc("topkserve_ready",
		"1 once every collection has been built and replayed, 0 before.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("topkserve_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(s.started).Seconds() })

	r.Collect(func(w *telemetry.Writer) {
		if !s.ready.Load() {
			return
		}
		cols := s.collectionsSnapshot()
		w.Gauge("topkserve_collections", "Live collections in the registry.", "",
			float64(len(cols)))
		for _, c := range cols {
			s.collectCollection(w, c)
		}

		if s.admission != nil {
			st := s.admission.Stats()
			w.Counter("topkserve_admission_admitted_total",
				"Search requests admitted past the shared concurrency semaphore.", "",
				float64(st.Admitted))
			w.Counter("topkserve_admission_shed_total",
				"Search requests shed by admission control (answered 429), by reason.",
				telemetry.Labels("reason", "queue_full"), float64(st.ShedQueueFull))
			w.Counter("topkserve_admission_shed_total", "",
				telemetry.Labels("reason", "wait_timeout"), float64(st.ShedTimeout))
			w.Counter("topkserve_admission_shed_total", "",
				telemetry.Labels("reason", "canceled"), float64(st.ShedCanceled))
			w.Gauge("topkserve_admission_capacity",
				"Concurrent search weight bound (-max-concurrency resolved).", "",
				float64(st.Capacity))
			w.Gauge("topkserve_admission_in_use",
				"Search weight currently admitted (one unit per batch member).", "",
				float64(st.InUse))
			w.Gauge("topkserve_admission_queue_depth",
				"Requests currently waiting for a search slot.", "",
				float64(st.QueueDepth))
			w.Histogram("topkserve_admission_queue_wait_seconds",
				"Queue wait of admitted requests (sheds are not observed here).", "",
				st.Wait)
		}
		if s.cache != nil {
			st := s.cache.Stats()
			w.Counter("topkserve_cache_hits_total",
				"Query-result cache hits.", "", float64(st.Hits))
			w.Counter("topkserve_cache_misses_total",
				"Query-result cache misses (generation invalidations included).", "",
				float64(st.Misses))
			w.Counter("topkserve_cache_invalidations_total",
				"Cache entries dropped because their generation went stale (a mutation or epoch rebuild landed).", "",
				float64(st.Invalidations))
			w.Counter("topkserve_cache_evictions_total",
				"Cache entries evicted by the LRU bound.", "", float64(st.Evictions))
			w.Gauge("topkserve_cache_entries",
				"Live query-result cache entries.", "", float64(st.Entries))
		}
	})
}

// collectCollection renders one collection's families, all labeled with its
// name. The telemetry writer deduplicates HELP/TYPE headers per family, so
// emitting the same family once per collection is exposition-legal.
func (s *Server) collectCollection(w *telemetry.Writer, c *Collection) {
	col := c.name
	labels := telemetry.Labels("collection", col)
	w.Counter("topkserve_queries_total", "Range queries served (batch members counted individually).",
		labels, float64(c.queries.Load()))
	w.Counter("topkserve_knn_queries_total", "Exact k-nearest-neighbor queries served.",
		labels, float64(c.knn.Load()))
	w.Counter("topkserve_batches_total", "Search batches served.",
		labels, float64(c.batches.Load()))
	w.Counter("topkserve_mutations_total", "Acked insert/delete/update mutations.",
		labels, float64(c.mutations.Load()))
	w.Gauge("topkserve_collection_size", "Live (non-tombstoned) rankings in the collection.",
		labels, float64(c.sh.Len()))
	w.Gauge("topkserve_collection_k", "Ranking size (top-k list length) of the collection.",
		labels, float64(c.effK()))
	w.Gauge("topkserve_shards", "Number of index shards.",
		labels, float64(c.sh.NumShards()))

	stats := c.sh.Stats()
	delta, tombstones := 0, 0
	for _, st := range stats {
		shardLabels := telemetry.Labels("collection", col, "shard", strconv.Itoa(st.Shard))
		w.Gauge("topkserve_shard_len", "Live rankings per shard.", shardLabels, float64(st.Len))
		w.Counter("topkserve_shard_distance_calls_total",
			"Footrule evaluations per shard, cumulative.", shardLabels, float64(st.DistanceCalls))
		w.Histogram("topkserve_shard_query_duration_seconds",
			"Per-shard query latency: one observation per search, whole batch or KNN query.",
			shardLabels, shardHistToTelemetry(st.Latency))
		delta += st.Delta
		tombstones += st.Tombstones
	}
	fan, mrg := c.sh.Timings()
	w.Histogram("topkserve_fanout_duration_seconds",
		"Scatter phase of a fanned-out search, batch or KNN query: dispatch until the slowest shard answers.",
		labels, shardHistToTelemetry(fan))
	w.Histogram("topkserve_merge_duration_seconds",
		"Gather phase of a fanned-out search, batch or KNN query: combining per-shard answers.",
		labels, shardHistToTelemetry(mrg))
	w.Gauge("topkserve_delta_overlay_size",
		"Rankings in the hybrid mutation overlay awaiting the next epoch rebuild, summed over shards.",
		labels, float64(delta))
	w.Gauge("topkserve_tombstones",
		"Tombstoned rankings awaiting compaction, summed over shards.",
		labels, float64(tombstones))
	if len(c.hybrids) > 0 {
		rb := aggregateRebuildStats(c.hybrids)
		w.Counter("topkserve_epoch_rebuilds_total",
			"Installed epoch rebuilds (background folds and explicit compactions), summed over shards.",
			labels, float64(rb.Rebuilds))
		w.Counter("topkserve_epoch_rebuild_seconds_total",
			"Cumulative wall time of installed epoch rebuilds.",
			labels, float64(rb.TotalNanos)/1e9)
		w.Gauge("topkserve_epoch_rebuild_last_seconds",
			"Wall time of the most recent installed epoch rebuild on any shard.",
			labels, float64(rb.LastNanos)/1e9)
	}

	for _, ps := range aggregatePlanStats(c.hybrids) {
		w.Counter("topkserve_planner_plans_total",
			"Queries each backend of the hybrid engine answered.",
			telemetry.Labels("collection", col, "backend", ps.Backend), float64(ps.Plans))
	}

	if c.wal != nil {
		st := c.wal.Stats()
		w.Counter("topkserve_wal_appends_total", "WAL records appended since open.",
			labels, float64(st.Appended))
		w.Counter("topkserve_wal_appended_bytes_total", "WAL record bytes appended since open.",
			labels, float64(st.AppendedBytes))
		w.Counter("topkserve_wal_synced_bytes_total",
			"WAL record bytes known durable (appended minus the sync policy's loss window).",
			labels, float64(st.SyncedBytes))
		w.Counter("topkserve_wal_syncs_total", "WAL fsync calls since open.",
			labels, float64(st.Syncs))
		w.Counter("topkserve_wal_checkpoints_total", "WAL checkpoints written since open.",
			labels, float64(st.Checkpoints))
		w.Gauge("topkserve_wal_active_segment", "Segment sequence currently appended to.",
			labels, float64(st.ActiveSegment))
		w.Gauge("topkserve_wal_segments", "WAL segment files on disk.",
			labels, float64(st.Segments))
		w.Gauge("topkserve_wal_last_checkpoint_time_seconds",
			"Unix time of the last checkpoint written by this process, 0 if none.",
			labels, float64(st.LastCheckpointUnix))
		w.Gauge("topkserve_wal_replayed_records",
			"Log records replayed during startup recovery.",
			labels, float64(c.walReplayed))
		w.Histogram("topkserve_wal_fsync_duration_seconds",
			"Duration of WAL fsync calls.", labels, st.FsyncLatency)
	}

	if st := c.storageStats(); st != nil {
		w.Gauge("topkserve_storage_mapped_bytes",
			"Bytes of the mmapped paged (v3) base checkpoint backing the collection; 0 when the base was decoded to the heap.",
			labels, float64(st.MappedBytes))
		w.Gauge("topkserve_storage_spill_bytes",
			"Bytes of mmapped epoch-spill arenas across the collection's hybrid shards (-spill-epochs).",
			labels, float64(st.SpillBytes))
		w.Counter("topkserve_storage_spill_fallbacks_total",
			"Hybrid epochs that were asked to spill (-spill-epochs) and fell back to the heap arena; the first error is in the server log.",
			labels, float64(st.SpillFallbacks))
		w.Gauge("topkserve_storage_dirty_slots",
			"Slots mutated since the last checkpoint capture.",
			labels, float64(st.DirtySlots))
		w.Gauge("topkserve_storage_dirty_pages",
			"Paged-snapshot pages the next incremental checkpoint must rewrite.",
			labels, float64(st.DirtyPages))
		w.Counter("topkserve_storage_checkpoint_pages_total",
			"Checkpoint pages, by whether they were physically written or carried over from the previous checkpoint.",
			telemetry.Labels("collection", col, "result", "written"), float64(st.CheckpointPagesWritten))
		w.Counter("topkserve_storage_checkpoint_pages_total", "",
			telemetry.Labels("collection", col, "result", "reused"), float64(st.CheckpointPagesReused))
		w.Counter("topkserve_storage_checkpoint_bytes_total",
			"Checkpoint bytes, by whether they were physically written or carried over from the previous checkpoint.",
			telemetry.Labels("collection", col, "result", "written"), float64(st.CheckpointBytesWritten))
		w.Counter("topkserve_storage_checkpoint_bytes_total", "",
			telemetry.Labels("collection", col, "result", "reused"), float64(st.CheckpointBytesReused))
	}

	if c.admission != nil {
		st := c.admission.Stats()
		w.Counter("topkserve_collection_admission_admitted_total",
			"Search requests admitted past a collection's weighted admission carve.",
			labels, float64(st.Admitted))
		w.Counter("topkserve_collection_admission_shed_total",
			"Search requests shed at a collection's weighted admission carve, by reason.",
			telemetry.Labels("collection", col, "reason", "queue_full"), float64(st.ShedQueueFull))
		w.Counter("topkserve_collection_admission_shed_total", "",
			telemetry.Labels("collection", col, "reason", "wait_timeout"), float64(st.ShedTimeout))
		w.Counter("topkserve_collection_admission_shed_total", "",
			telemetry.Labels("collection", col, "reason", "canceled"), float64(st.ShedCanceled))
		w.Gauge("topkserve_collection_admission_capacity",
			"Concurrent search weight bound of a collection's carve (weight x shared capacity).",
			labels, float64(st.Capacity))
		w.Gauge("topkserve_collection_admission_in_use",
			"Search weight currently admitted through a collection's carve.",
			labels, float64(st.InUse))
		w.Gauge("topkserve_collection_admission_queue_depth",
			"Requests currently waiting at a collection's carve.",
			labels, float64(st.QueueDepth))
	}
}

// shardHistToTelemetry converts a shard-layer µs-bucket snapshot into the
// seconds-based exposition model. The shard histogram's final bucket
// already absorbs overflow under a finite bound, so the +Inf bucket is
// always empty.
func shardHistToTelemetry(hs shard.HistogramSnapshot) telemetry.HistogramSnapshot {
	bounds := make([]float64, len(hs.BucketBoundsMicros))
	for i, b := range hs.BucketBoundsMicros {
		bounds[i] = float64(b) / 1e6
	}
	counts := make([]uint64, len(bounds)+1)
	copy(counts, hs.Buckets)
	return telemetry.HistogramSnapshot{
		Bounds: bounds,
		Counts: counts,
		Count:  hs.Count,
		Sum:    hs.SumMicros / 1e6,
	}
}

// aggregateRebuildStats sums the epoch-rebuild history across shards.
func aggregateRebuildStats(hybrids []*topk.HybridIndex) topk.RebuildStats {
	var out topk.RebuildStats
	for _, h := range hybrids {
		st := h.RebuildStats()
		out.Rebuilds += st.Rebuilds
		out.TotalNanos += st.TotalNanos
		if st.LastNanos > out.LastNanos {
			out.LastNanos = st.LastNanos
		}
	}
	return out
}

// handleMetrics renders the exposition document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		fmt.Fprintf(os.Stderr, "metrics write: %v\n", err)
	}
}
