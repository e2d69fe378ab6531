// Prometheus exposition for the serving core: GET /metrics renders every
// layer of the stack — HTTP front end, per-collection indexes, WALs — as one
// text-exposition document.
//
// Every family is written at scrape time, so the search hot path pays only
// for the counts the layers keep anyway. The HTTP front end counts each
// request into its route's status-indexed atomics and latency histogram
// (no lock, no allocation); the layers below it already maintain snapshots
// for GET /stats (the index's counters, wal.Stats). One
// collector reads all of them when a scraper asks and renders them.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/telemetry"
)

// serverMetrics is the registry plus the HTTP front end's counts.
type serverMetrics struct {
	reg      telemetry.Registry
	inflight atomic.Int64

	mu     sync.Mutex    // guards routes
	routes []*routeStats // in registration order
}

// routeStats is the HTTP accounting of one route label: requests by status
// code and their latency.
type routeStats struct {
	route   string
	latency *telemetry.Histogram
	// codes[status] counts the requests answered with that status; net/http
	// accepts exactly the statuses 100–999. It comes last: it holds no
	// pointers, so the garbage collector scans only the fields above it.
	codes [1000]atomic.Uint64
}

// route returns the counts of a route label, creating them on first use: a
// label can be registered more than once (/collections/:name serves three
// methods) and Handler may be called more than once.
func (m *serverMetrics) route(route string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rs := range m.routes {
		if rs.route == route {
			return rs
		}
	}
	rs := &routeStats{route: route, latency: telemetry.NewHistogram(telemetry.DefLatencyBuckets)}
	m.routes = append(m.routes, rs)
	return rs
}

// collectHTTP renders the HTTP families. A route or status that never
// answered a request has no sample. Each count is loaded once, so an error
// sample always equals its request sample.
func (m *serverMetrics) collectHTTP(w *telemetry.Writer) {
	m.mu.Lock()
	routes := append([]*routeStats(nil), m.routes...)
	m.mu.Unlock()
	type sample struct {
		labels string
		code   int
		n      float64
	}
	var samples []sample
	for _, rs := range routes {
		for code := range rs.codes {
			if n := rs.codes[code].Load(); n > 0 {
				labels := telemetry.Labels("route", rs.route, "code", strconv.Itoa(code))
				samples = append(samples, sample{labels, code, float64(n)})
			}
		}
	}
	for _, s := range samples {
		w.Counter("topkserve_http_requests_total", "HTTP requests served, by route and status code.",
			s.labels, s.n)
	}
	for _, s := range samples {
		if s.code >= 400 {
			w.Counter("topkserve_http_errors_total",
				"HTTP requests answered with a 4xx or 5xx status, by route and status code.", s.labels, s.n)
		}
	}
	w.Gauge("topkserve_http_requests_in_flight", "HTTP requests currently being handled.", "",
		float64(m.inflight.Load()))
	for _, rs := range routes {
		if st := rs.latency.Snapshot(); st.Count > 0 {
			w.Histogram("topkserve_http_request_duration_seconds", "HTTP request latency, by route.",
				telemetry.Labels("route", rs.route), st)
		}
	}
}

// registerCollectors wires the scrape-time side. Readiness, uptime and the
// HTTP families are written from the start; the rest — per-collection
// counters, index sizes, rebuild history and WAL counters,
// each labeled with its collection, plus the process-wide admission and
// cache families — waits until bootstrap has finished: the readiness load is
// also the acquire barrier for the registry (bootstrap publishes every
// collection before ready flips).
func (s *Server) registerCollectors() {
	telemetry.RegisterRuntime(&s.metrics.reg)
	s.metrics.reg.Collect(func(w *telemetry.Writer) {
		var ready float64
		if s.ready.Load() {
			ready = 1
		}
		w.Gauge("topkserve_ready", "1 once every collection has been built and replayed, 0 before.", "",
			ready)
		w.Gauge("topkserve_uptime_seconds", "Seconds since process start.", "",
			time.Since(s.started).Seconds())
		s.metrics.collectHTTP(w)
		if ready == 0 {
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
				"Cache entries dropped because their generation went stale (a mutation landed).", "",
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
		labels, float64(c.idx.Len()))
	w.Gauge("topkserve_collection_k", "Ranking size (top-k list length) of the collection.",
		labels, float64(c.idx.K()))
	w.Gauge("topkserve_tombstones",
		"Tombstoned rankings awaiting compaction.",
		labels, float64(c.idx.Tombstones()))
	rb := c.idx.RebuildStats()
	w.Counter("topkserve_epoch_rebuilds_total",
		"Compactions (automatic and explicit rebuilds over the surviving rankings).",
		labels, float64(rb.Rebuilds))
	w.Counter("topkserve_epoch_rebuild_seconds_total",
		"Cumulative wall time of compactions.",
		labels, float64(rb.TotalNanos)/1e9)
	w.Gauge("topkserve_epoch_rebuild_last_seconds",
		"Wall time of the most recent compaction.",
		labels, float64(rb.LastNanos)/1e9)

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

// handleMetrics renders the exposition document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		fmt.Fprintf(s.cfg.logw(), "metrics write: %v\n", err)
	}
}
