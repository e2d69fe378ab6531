// The HTTP surface of the serving core. Data routes are rooted per
// collection (/c/{name}/...), the classic single-collection routes alias
// the default collection byte-for-byte, lifecycle routes manage the
// registry, and a JSON fallback gives even unmatched routes and method
// mismatches the {"error","code"} contract — with their metrics collapsed
// onto one "other" route label so scraping an unknown path cannot mint
// unbounded label values.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"topk"
	"topk/internal/admit"
	"topk/internal/persist"
	"topk/internal/qcache"
	"topk/internal/ranking"
	"topk/internal/shard"
	"topk/internal/wal"
)

// collectionHandler is a data handler bound to a resolved, ref-pinned
// collection.
type collectionHandler func(c *Collection, w http.ResponseWriter, r *http.Request)

// Handler returns the server's HTTP surface. Requests no registered pattern
// matches — unknown paths and method mismatches alike — are normalized onto
// the "other" route label and answered with the JSON error contract.
func (s *Server) Handler() http.Handler {
	mux := s.routes()
	fallback := s.instrument("other", s.fallbackHandler(mux))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern == "" {
			fallback(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	// gated instruments a route and holds it 503 until bootstrap finishes;
	// data binds a gated handler to the collection the route names.
	gated := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return s.instrument(route, s.gate(h))
	}
	data := func(route string, h collectionHandler) http.HandlerFunc {
		return gated(route, s.withNamedCollection(h))
	}
	legacy := func(route string, h collectionHandler) http.HandlerFunc {
		return gated(route, s.withDefaultCollection(h))
	}

	// Collection lifecycle.
	mux.HandleFunc("PUT /collections/{name}", gated("/collections/:name", s.handleCreateCollection))
	mux.HandleFunc("DELETE /collections/{name}", gated("/collections/:name", s.handleDropCollection))
	mux.HandleFunc("GET /collections/{name}", gated("/collections/:name", s.handleGetCollection))
	mux.HandleFunc("GET /collections", gated("/collections", s.handleListCollections))

	// Per-collection data routes.
	mux.HandleFunc("POST /c/{name}/search", data("/c/:name/search", s.handleSearch))
	mux.HandleFunc("POST /c/{name}/knn", data("/c/:name/knn", s.handleKNN))
	mux.HandleFunc("POST /c/{name}/insert", data("/c/:name/insert", s.handleInsert))
	mux.HandleFunc("POST /c/{name}/delete", data("/c/:name/delete", s.handleDelete))
	mux.HandleFunc("POST /c/{name}/update", data("/c/:name/update", s.handleUpdate))
	mux.HandleFunc("GET /c/{name}/snapshot", data("/c/:name/snapshot", s.handleSnapshot))
	mux.HandleFunc("POST /c/{name}/checkpoint", data("/c/:name/checkpoint", s.handleCheckpoint))
	mux.HandleFunc("GET /c/{name}/stats", data("/c/:name/stats", s.handleStats))

	// Legacy single-collection aliases: same handlers, default collection.
	mux.HandleFunc("POST /search", legacy("/search", s.handleSearch))
	mux.HandleFunc("POST /knn", legacy("/knn", s.handleKNN))
	mux.HandleFunc("POST /insert", legacy("/insert", s.handleInsert))
	mux.HandleFunc("POST /delete", legacy("/delete", s.handleDelete))
	mux.HandleFunc("POST /update", legacy("/update", s.handleUpdate))
	mux.HandleFunc("GET /snapshot", legacy("/snapshot", s.handleSnapshot))
	mux.HandleFunc("POST /checkpoint", legacy("/checkpoint", s.handleCheckpoint))
	mux.HandleFunc("GET /stats", legacy("/stats", s.handleStats))

	// Process-level routes.
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/trace", s.instrument("/debug/trace", s.handleDebugTrace))
	return mux
}

// fallbackHandler answers requests the mux has no pattern for. The mux still
// runs first — against a body-discarding writer — so its method-mismatch
// logic (405 + Allow header) is preserved; only the plain-text body is
// replaced with the JSON error contract.
func (s *Server) fallbackHandler(mux *http.ServeMux) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fw := &fallbackWriter{header: w.Header(), status: http.StatusOK}
		mux.ServeHTTP(fw, r)
		switch fw.status {
		case http.StatusMethodNotAllowed:
			httpError(w, fw.status, "method %s not allowed for %s", r.Method, r.URL.Path)
		case http.StatusNotFound:
			httpError(w, fw.status, "no route for %s %s", r.Method, r.URL.Path)
		default:
			httpError(w, fw.status, "%s %s", r.Method, r.URL.Path)
		}
	}
}

// fallbackWriter lets the mux decide status and headers (notably Allow on a
// 405) while discarding its plain-text body: Header returns the real
// response's header map, so whatever the mux sets is sent with the JSON
// error that replaces the body.
type fallbackWriter struct {
	header http.Header
	status int
}

func (f *fallbackWriter) Header() http.Header         { return f.header }
func (f *fallbackWriter) WriteHeader(code int)        { f.status = code }
func (f *fallbackWriter) Write(b []byte) (int, error) { return len(b), nil }

// withNamedCollection resolves {name} from the route, pins the collection
// for the request's duration (the drop drain) and dispatches.
func (s *Server) withNamedCollection(h collectionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.dispatchCollection(r.PathValue("name"), h, w, r)
	}
}

// withDefaultCollection binds the legacy single-collection routes to the
// flag-defined default.
func (s *Server) withDefaultCollection(h collectionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.dispatchCollection(s.cfg.DefaultCollection, h, w, r)
	}
}

func (s *Server) dispatchCollection(name string, h collectionHandler, w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
		return
	}
	// ref can still fail: the collection may have been dropped between the
	// lookup and here. Either way the answer is 404, never a use-after-drop.
	if !c.ref() {
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
		return
	}
	defer c.unref()
	traceFrom(r).setCollection(name)
	h(c, w, r)
}

// gate rejects index-backed requests until bootstrap has published the
// registry: 503 with Retry-After, the standard not-ready contract, instead
// of a nil dereference mid-build.
func (s *Server) gate(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "index not ready: initial build or WAL replay in progress")
			return
		}
		next(w, r)
	}
}

// instrument wraps a route with the HTTP metrics (request/error counters by
// status, in-flight gauge, latency histogram) and the per-request trace
// (X-Request-ID propagation, span recording, /debug/trace ring, slow-query
// log). The accounting runs in a deferred block so a panicking handler
// cannot leak the in-flight gauge or drop its trace: the panic is recovered
// into a 500 (when the handler had not started the response yet) and the
// request is counted and traced like any other failure.
func (s *Server) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.tracer.begin(route, w, r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.metrics.inflight.Inc()
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "panic serving %s: %v\n%s", route, p, debug.Stack())
				if !sw.wroteHeader {
					httpError(sw, http.StatusInternalServerError, "internal error")
				} else {
					sw.status = http.StatusInternalServerError
				}
			}
			dur := time.Since(start)
			s.metrics.inflight.Dec()
			code := strconv.Itoa(sw.status)
			s.metrics.requests.With(route, code).Inc()
			if sw.status >= 400 {
				s.metrics.errors.With(route, code).Inc()
			}
			s.metrics.latency.With(route).Observe(dur.Seconds())
			s.tracer.finish(tr, sw.status, dur)
		}()
		next(sw, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr)))
	}
}

// decodeJSON parses a request body bounded by the -max-body limit; a false
// return means the error response was already written — 413 when the body
// exceeded the limit, 400 for anything else. Exactly one JSON value is
// accepted: trailing garbage after it (which encoding/json's streaming
// Decode would silently leave unread) is a 400, trailing whitespace is fine.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var trailing json.RawMessage
		if terr := dec.Decode(&trailing); terr != io.EOF {
			httpError(w, http.StatusBadRequest, "trailing data after JSON body")
			return false
		}
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes (raise -max-body)", mbe.Limit)
		return false
	}
	httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

// withDeadline applies the -default-timeout budget to a request context.
func (s *Server) withDeadline(r *http.Request) (context.Context, context.CancelFunc) {
	if s.defaultTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.defaultTimeout)
}

// admitSearch acquires admission for a search: the collection's carve first
// (so a flooded tenant queues and sheds within its own share), then the
// shared controller. The returned release hands both back.
func (s *Server) admitSearch(ctx context.Context, c *Collection, weight int64) (func(), error) {
	relTenant, err := c.admission.Acquire(ctx, weight)
	if err != nil {
		return nil, err
	}
	relGlobal, err := s.admission.Acquire(ctx, weight)
	if err != nil {
		relTenant()
		return nil, err
	}
	return func() { relGlobal(); relTenant() }, nil
}

// ---------------------------------------------------------------------------
// Collection lifecycle handlers.

// handleCreateCollection makes a new, empty, mutable collection. The body is
// optional JSON CollectionOptions; an absent body takes every default.
func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateCollectionName(name); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var opts CollectionOptions
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil && !errors.Is(err, io.EOF) {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	opts = opts.withDefaults(s.cfg)
	if err := opts.validate(s.walRoot != ""); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := s.createCollection(name, opts)
	switch {
	case errors.Is(err, errCollectionExists):
		httpError(w, http.StatusConflict, "collection %q already exists", name)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "create collection: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.info(c))
}

// handleDropCollection drains and removes a collection; see dropCollection
// for the crash-ordering. The flag-defined default is not droppable (409).
func (s *Server) handleDropCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	err := s.dropCollection(name)
	switch {
	case errors.Is(err, errCollectionNotFound):
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
	case errors.Is(err, errDefaultCollection):
		httpError(w, http.StatusConflict, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "drop collection: %v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	}
}

func (s *Server) handleGetCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c, ok := s.lookup(name)
	if !ok || !c.ref() {
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
		return
	}
	defer c.unref()
	writeJSON(w, http.StatusOK, s.info(c))
}

func (s *Server) handleListCollections(w http.ResponseWriter, r *http.Request) {
	cols := s.collectionsSnapshot()
	infos := make([]collectionInfo, 0, len(cols))
	for _, c := range cols {
		if !c.ref() {
			continue
		}
		infos = append(infos, s.info(c))
		c.unref()
	}
	writeJSON(w, http.StatusOK, map[string]any{"collections": infos})
}

// ---------------------------------------------------------------------------
// Data handlers (collection-scoped).

// handleSnapshot streams the collection as a single-file v3 snapshot: the
// external-id slot array with tombstones marked, so restarting with
// -load-snapshot preserves every id. `curl -s :8080/snapshot > snap.v3`.
func (s *Server) handleSnapshot(c *Collection, w http.ResponseWriter, r *http.Request) {
	slots, ok := c.sh.Slots()
	if !ok {
		httpError(w, http.StatusBadRequest, "index kind %q exposes no snapshot view", c.opts.Kind)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=\"rankings.v3\"")
	if _, err := persist.WritePagedTo(w, slots); err != nil {
		// Headers are gone; all we can do is log.
		fmt.Fprintf(s.cfg.logw(), "collection %q: snapshot write: %v\n", c.name, err)
	}
}

// checkpointResponse reports what POST /checkpoint wrote and reclaimed.
type checkpointResponse struct {
	// Seq is the log sequence the checkpoint is consistent at: it reflects
	// every mutation acked before it and none after.
	Seq uint64 `json:"seq"`
	// Bytes is what the checkpoint physically wrote: dirty pages plus the
	// footer, not the collection size.
	Bytes int64 `json:"bytes"`
	// Slots and Live describe the captured collection (id-space size and
	// non-tombstoned count).
	Slots int `json:"slots"`
	Live  int `json:"live"`
	// Page economy of the incremental write: pages/bytes rewritten versus
	// carried over unchanged from the previous checkpoint.
	PagesWritten int   `json:"pagesWritten"`
	PagesReused  int   `json:"pagesReused"`
	BytesReused  int64 `json:"bytesReused"`
}

// handleCheckpoint makes the collection state durable and truncates its WAL:
// under the mutation lock it rotates the log and captures the consistent
// slot view (an exact cut — see Sharded.Slots) together with the slots
// dirtied since the previous capture, then writes an incremental paged (v3)
// checkpoint off-lock — only the dirty pages hit the disk, clean pages are
// carried over from the previous footer — atomically installs its footer as
// checkpoint-<seq>.v3f and deletes the segments and checkpoints it
// supersedes. Mutations arriving during the write land in the post-rotation
// segment, which recovery replays on top of the checkpoint.
func (s *Server) handleCheckpoint(c *Collection, w http.ResponseWriter, r *http.Request) {
	if c.wal == nil {
		httpError(w, http.StatusBadRequest, "collection has no write-ahead log: nothing to checkpoint")
		return
	}
	c.checkpointMu.Lock()
	defer c.checkpointMu.Unlock()
	c.walMu.Lock()
	seq, err := c.wal.Rotate()
	if err != nil {
		c.walMu.Unlock()
		httpError(w, http.StatusInternalServerError, "wal rotate: %v", err)
		return
	}
	slots, ok := c.sh.Slots()
	var dirty *persist.DirtySet
	if ok {
		// Same instant as the slot cut: dirt accumulated after this capture
		// belongs to the next checkpoint.
		dirty = c.tracker.Capture()
	}
	c.walMu.Unlock()
	if !ok {
		httpError(w, http.StatusBadRequest, "index kind %q exposes no snapshot view", c.opts.Kind)
		return
	}
	var stats persist.CheckpointStats
	if err := c.wal.Checkpoint(seq, func(string) error {
		var werr error
		stats, werr = c.pager.WriteCheckpoint(seq, slots, dirty)
		return werr
	}); err != nil {
		// The dirt is not on disk: put it back for the next attempt.
		c.tracker.MergeBack(dirty)
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	c.ckptPagesWritten.Add(uint64(stats.PagesWritten))
	c.ckptPagesReused.Add(uint64(stats.PagesReused))
	c.ckptBytesWritten.Add(uint64(stats.BytesWritten))
	c.ckptBytesReused.Add(uint64(stats.BytesReused))
	live := 0
	for _, r := range slots {
		if r != nil {
			live++
		}
	}
	writeJSON(w, http.StatusOK, checkpointResponse{
		Seq: seq, Bytes: stats.BytesWritten, Slots: len(slots), Live: live,
		PagesWritten: stats.PagesWritten, PagesReused: stats.PagesReused, BytesReused: stats.BytesReused,
	})
}

// searchRequest is the /search payload: exactly one of Query or Queries,
// with either one shared Theta or (batch only) one theta per query.
type searchRequest struct {
	Query   ranking.Ranking   `json:"query,omitempty"`
	Queries []ranking.Ranking `json:"queries,omitempty"`
	Theta   float64           `json:"theta"`
	Thetas  []float64         `json:"thetas,omitempty"`
}

// resultJSON augments a raw result with its normalized distance.
type resultJSON struct {
	ID       ranking.ID `json:"id"`
	Dist     int        `json:"dist"`
	NormDist float64    `json:"normDist"`
}

type answerJSON struct {
	Count   int          `json:"count"`
	Results []resultJSON `json:"results"`
}

type searchResponse struct {
	TookMicros int64        `json:"tookMicros"`
	Count      int          `json:"count,omitempty"`
	Results    []resultJSON `json:"results,omitempty"`
	Answers    []answerJSON `json:"answers,omitempty"`
	// BatchMode reports how a batch was processed: "shared" when the
	// shared-candidate batch processor answered it, "per-query" otherwise.
	BatchMode string `json:"batchMode,omitempty"`
}

func (s *Server) handleSearch(c *Collection, w http.ResponseWriter, r *http.Request) {
	tr := traceFrom(r)
	parseStart := time.Now()
	var req searchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if (req.Query == nil) == (req.Queries == nil) {
		httpError(w, http.StatusBadRequest, "pass exactly one of \"query\" or \"queries\"")
		return
	}
	if req.Queries != nil && len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "\"queries\" must not be empty")
		return
	}
	if req.Thetas != nil {
		if req.Queries == nil {
			httpError(w, http.StatusBadRequest, "\"thetas\" requires \"queries\"")
			return
		}
		if len(req.Thetas) != len(req.Queries) {
			httpError(w, http.StatusBadRequest, "%d thetas for %d queries", len(req.Thetas), len(req.Queries))
			return
		}
		for i, t := range req.Thetas {
			if t < 0 || t > 1 {
				httpError(w, http.StatusBadRequest, "thetas[%d] = %v outside [0,1]", i, t)
				return
			}
		}
	}
	if req.Theta < 0 || req.Theta > 1 {
		httpError(w, http.StatusBadRequest, "theta %v outside [0,1]", req.Theta)
		return
	}
	queries := req.Queries
	if req.Query != nil {
		queries = []ranking.Ranking{req.Query}
	}
	effK := c.effK()
	for i, q := range queries {
		if effK != 0 && q.K() != effK {
			httpError(w, http.StatusBadRequest, "query %d has size %d, index has k=%d", i, q.K(), effK)
			return
		}
		if err := q.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
	}

	tr.addStage("parse", time.Since(parseStart))
	traceTheta := req.Theta
	if req.Thetas != nil {
		traceTheta = req.Thetas[0]
	}
	tr.setQueryShape(traceTheta, len(queries), effK)

	ctx, cancelReq := s.withDeadline(r)
	defer cancelReq()
	admitStart := time.Now()
	release, err := s.admitSearch(ctx, c, int64(len(queries)))
	if err != nil {
		writeShedError(w, err)
		return
	}
	defer release()
	tr.addStage("admit", time.Since(admitStart))

	start := time.Now()
	answers, mode, err := s.runSearch(ctx, c, req, queries, tr)
	if err != nil {
		writeSearchError(w, "search", err)
		return
	}
	c.queries.Add(uint64(len(queries)))
	respondStart := time.Now()
	defer func() { tr.addStage("respond", time.Since(respondStart)) }()
	resp := searchResponse{TookMicros: time.Since(start).Microseconds()}
	if req.Query != nil {
		resp.Count = len(answers[0])
		resp.Results = c.toJSON(answers[0])
	} else {
		resp.BatchMode = mode
		resp.Answers = make([]answerJSON, len(answers))
		for i, a := range answers {
			resp.Answers[i] = answerJSON{Count: len(a), Results: c.toJSON(a)}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// runSearch dispatches a validated /search request: uniform-threshold
// batches go through the shared-candidate batch processor when the index
// kind supports it, mixed-radius batches (and kinds without batch support)
// fall back to independent per-query searches. Single queries probe the
// result cache first, then run through the traced scatter-gather so the
// request trace records fan-out and merge timings plus backend attribution;
// batch stages are recorded whole. ctx cancellation propagates into the
// shard fan-out on every path.
func (s *Server) runSearch(ctx context.Context, c *Collection, req searchRequest, queries []ranking.Ranking, tr *requestTrace) ([][]ranking.Result, string, error) {
	if c.sh.K() == 0 {
		// Structurally empty collection: nothing can match, and the sub-index
		// kinds are not guaranteed to accept arbitrary-size queries at k=0.
		return make([][]ranking.Result, len(queries)), "per-query", nil
	}
	planStart := time.Now()
	theta, uniform := req.Theta, true
	if req.Thetas != nil {
		theta = req.Thetas[0]
		for _, t := range req.Thetas[1:] {
			if t != theta {
				uniform = false
				break
			}
		}
	}
	tr.addStage("plan", time.Since(planStart))
	if req.Query != nil {
		cacheStart := time.Now()
		var (
			key    qcache.Key
			gen    uint64
			res    []ranking.Result
			cached bool
		)
		if s.cache != nil {
			// The generation is read BEFORE the search: a mutation landing
			// mid-search makes the entry conservatively stale, never wrongly
			// fresh (see qcache's package comment).
			key = qcache.Key{Collection: c.cacheScope, Kind: "search", Query: queries[0].String(), Theta: theta}
			gen = c.generation()
			res, cached = s.cache.Get(key, gen)
		}
		tr.addStage("cache", time.Since(cacheStart))
		if cached {
			return [][]ranking.Result{res}, "cached", nil
		}
		res, qt, err := c.sh.SearchTracedContext(ctx, queries[0], theta)
		tr.addStageMicros("fanout", qt.FanoutMicros)
		tr.addStageMicros("merge", qt.MergeMicros)
		tr.setAttribution(qt.Backends, qt.DistanceCalls)
		if err != nil {
			return nil, "", err
		}
		s.cache.Put(key, gen, res)
		return [][]ranking.Result{res}, "per-query", nil
	}
	searchStart := time.Now()
	defer func() { tr.addStage("search", time.Since(searchStart)) }()
	if !uniform {
		c.batchSplit.Add(1)
		res, err := c.sh.SearchBatchThetasContext(ctx, queries, req.Thetas)
		return res, "per-query", err
	}
	if len(queries) > 1 {
		if res, ok, err := c.sh.SearchBatchSharedContext(ctx, queries, theta); ok {
			c.batchShared.Add(1)
			return res, "shared", err
		}
	}
	c.batchSplit.Add(1)
	res, err := c.sh.SearchBatchContext(ctx, queries, theta)
	return res, "per-query", err
}

// knnRequest is the /knn payload.
type knnRequest struct {
	Query ranking.Ranking `json:"query"`
	N     int             `json:"n"`
}

type knnResponse struct {
	TookMicros int64        `json:"tookMicros"`
	Count      int          `json:"count"`
	Results    []resultJSON `json:"results"`
}

// handleKNN answers an exact k-nearest-neighbor query with the sharded
// per-shard fan-out and (distance, id) heap merge. Its trace carries the
// stage names /search uses (cache, fanout, merge, respond) and the backends
// that answered: "inverted" is the native posting-list KNN, any other name
// the backend the expanding-radius reduction ran over.
func (s *Server) handleKNN(c *Collection, w http.ResponseWriter, r *http.Request) {
	tr := traceFrom(r)
	parseStart := time.Now()
	var req knnRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Query == nil {
		httpError(w, http.StatusBadRequest, "missing \"query\"")
		return
	}
	if req.N <= 0 {
		httpError(w, http.StatusBadRequest, "\"n\" must be positive, have %d", req.N)
		return
	}
	effK := c.effK()
	if effK != 0 && req.Query.K() != effK {
		httpError(w, http.StatusBadRequest, "query has size %d, index has k=%d", req.Query.K(), effK)
		return
	}
	if err := req.Query.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr.addStage("parse", time.Since(parseStart))
	tr.setQueryShape(0, 1, effK)
	ctx, cancelReq := s.withDeadline(r)
	defer cancelReq()
	admitStart := time.Now()
	release, err := s.admitSearch(ctx, c, 1)
	if err != nil {
		writeShedError(w, err)
		return
	}
	defer release()
	tr.addStage("admit", time.Since(admitStart))
	start := time.Now()
	var (
		key qcache.Key
		gen uint64
	)
	res, cached := []ranking.Result(nil), false
	if c.sh.K() == 0 {
		cached = true // structurally empty: the answer is the empty set
	} else if s.cache != nil {
		key = qcache.Key{Collection: c.cacheScope, Kind: "knn", Query: req.Query.String(), N: req.N}
		gen = c.generation()
		res, cached = s.cache.Get(key, gen)
	}
	tr.addStage("cache", time.Since(start))
	if !cached {
		var qt shard.QueryTrace
		res, qt, err = c.sh.NearestNeighborsTracedContext(ctx, req.Query, req.N)
		tr.addStageMicros("fanout", qt.FanoutMicros)
		tr.addStageMicros("merge", qt.MergeMicros)
		tr.setAttribution(qt.Backends, qt.DistanceCalls)
		if err != nil {
			writeSearchError(w, "knn", err)
			return
		}
		s.cache.Put(key, gen, res)
	}
	c.knn.Add(1)
	respondStart := time.Now()
	defer func() { tr.addStage("respond", time.Since(respondStart)) }()
	writeJSON(w, http.StatusOK, knnResponse{
		TookMicros: time.Since(start).Microseconds(),
		Count:      len(res),
		Results:    c.toJSON(res),
	})
}

// mutateRequest is the payload of /insert, /delete and /update. ID is a
// pointer so a missing field is distinguishable from id 0.
type mutateRequest struct {
	ID      *ranking.ID     `json:"id,omitempty"`
	Ranking ranking.Ranking `json:"ranking,omitempty"`
}

type mutateResponse struct {
	ID ranking.ID `json:"id"`
	N  int        `json:"n"`
}

// decodeMutation parses and bounds a mutation body; a false return means an
// error response was already written. Mutations against a read-only index
// kind are 405 Method Not Allowed, never 500.
func (s *Server) decodeMutation(c *Collection, w http.ResponseWriter, r *http.Request) (mutateRequest, bool) {
	var req mutateRequest
	if !s.decodeJSON(w, r, &req) {
		return req, false
	}
	if !c.sh.Mutable() {
		httpError(w, http.StatusMethodNotAllowed, "index kind %q is read-only: mutations are not supported", c.opts.Kind)
		return req, false
	}
	return req, true
}

// writeMutationError maps a mutation failure onto the endpoint contract:
// unknown or retired ids are 404, mutations a sub-index rejects as
// read-only are 405, and only genuine internal failures surface as 500.
func writeMutationError(w http.ResponseWriter, c *Collection, verb string, err error) {
	switch {
	case errors.Is(err, topk.ErrUnknownID):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, shard.ErrImmutable):
		httpError(w, http.StatusMethodNotAllowed, "index kind %q is read-only: %s not supported", c.opts.Kind, verb)
	default:
		httpError(w, http.StatusInternalServerError, "%s: %v", verb, err)
	}
}

// checkRanking validates a mutation payload ranking against the collection.
// While the collection is structurally empty and declared no size, the first
// insert defines k — bounded by the WAL record format when durable.
func checkRanking(w http.ResponseWriter, c *Collection, rk ranking.Ranking) bool {
	if rk == nil {
		httpError(w, http.StatusBadRequest, "missing \"ranking\"")
		return false
	}
	effK := c.effK()
	if effK != 0 && rk.K() != effK {
		httpError(w, http.StatusBadRequest, "ranking has size %d, index has k=%d", rk.K(), effK)
		return false
	}
	if effK == 0 && c.wal != nil && rk.K() > maxWALRankingSize {
		httpError(w, http.StatusBadRequest,
			"the write-ahead log supports ranking sizes up to %d, have %d", maxWALRankingSize, rk.K())
		return false
	}
	if err := rk.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

func (s *Server) handleInsert(c *Collection, w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeMutation(c, w, r)
	if !ok {
		return
	}
	if req.ID != nil {
		httpError(w, http.StatusBadRequest, "\"id\" is not an insert field (use /update to replace)")
		return
	}
	if !checkRanking(w, c, req.Ranking) {
		return
	}
	id, err := c.applyInsert(req.Ranking)
	if err != nil {
		writeMutationError(w, c, "insert", err)
		return
	}
	c.mutations.Add(1)
	writeJSON(w, http.StatusOK, mutateResponse{ID: id, N: c.sh.Len()})
}

func (s *Server) handleDelete(c *Collection, w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeMutation(c, w, r)
	if !ok {
		return
	}
	if req.ID == nil {
		httpError(w, http.StatusBadRequest, "missing \"id\"")
		return
	}
	if req.Ranking != nil {
		httpError(w, http.StatusBadRequest, "\"ranking\" is not a delete field")
		return
	}
	if err := c.applyDelete(*req.ID); err != nil {
		writeMutationError(w, c, "delete", err)
		return
	}
	c.mutations.Add(1)
	writeJSON(w, http.StatusOK, mutateResponse{ID: *req.ID, N: c.sh.Len()})
}

func (s *Server) handleUpdate(c *Collection, w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeMutation(c, w, r)
	if !ok {
		return
	}
	if req.ID == nil {
		httpError(w, http.StatusBadRequest, "missing \"id\"")
		return
	}
	if !checkRanking(w, c, req.Ranking) {
		return
	}
	if err := c.applyUpdate(*req.ID, req.Ranking); err != nil {
		writeMutationError(w, c, "update", err)
		return
	}
	c.mutations.Add(1)
	writeJSON(w, http.StatusOK, mutateResponse{ID: *req.ID, N: c.sh.Len()})
}

type statsResponse struct {
	Index         string `json:"index"`
	N             int    `json:"n"`
	K             int    `json:"k"`
	NumShards     int    `json:"numShards"`
	Mutable       bool   `json:"mutable"`
	Queries       uint64 `json:"queries"`
	KNNQueries    uint64 `json:"knnQueries"`
	BatchShared   uint64 `json:"batchShared"`
	BatchPerQuery uint64 `json:"batchPerQuery"`
	Mutations     uint64 `json:"mutations"`
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
	// Planner is the per-backend plan scoreboard of the hybrid engine,
	// aggregated across shards; absent for single-backend kinds.
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

// planStats is implemented by hybrid sub-indices.
type planStats interface{ PlanStats() []topk.PlanStats }

// aggregatePlanStats merges the per-shard plan scoreboards by backend name:
// plan and observation counters add up, the EWMAs combine as
// observation-weighted means.
func aggregatePlanStats(sh *shard.Sharded) []topk.PlanStats {
	var order []string
	acc := make(map[string]*topk.PlanStats)
	weightLat := make(map[string]float64)
	weightDFC := make(map[string]float64)
	for i := 0; i < sh.NumShards(); i++ {
		sub, _ := sh.Shard(i)
		ps, ok := sub.(planStats)
		if !ok {
			return nil
		}
		for _, st := range ps.PlanStats() {
			a := acc[st.Backend]
			if a == nil {
				a = &topk.PlanStats{Backend: st.Backend}
				acc[st.Backend] = a
				order = append(order, st.Backend)
			}
			a.Plans += st.Plans
			a.Observations += st.Observations
			a.Mispredicts += st.Mispredicts
			weightLat[st.Backend] += float64(st.Observations) * st.EWMALatencyNanos
			weightDFC[st.Backend] += float64(st.Observations) * st.EWMADistanceCalls
		}
	}
	out := make([]topk.PlanStats, 0, len(order))
	for _, name := range order {
		a := acc[name]
		if a.Observations > 0 {
			a.EWMALatencyNanos = weightLat[name] / float64(a.Observations)
			a.EWMADistanceCalls = weightDFC[name] / float64(a.Observations)
		}
		out = append(out, *a)
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
		Mutable:       c.sh.Mutable(),
		Queries:       c.queries.Load(),
		KNNQueries:    c.knn.Load(),
		BatchShared:   c.batchShared.Load(),
		BatchPerQuery: c.batchSplit.Load(),
		Mutations:     c.mutations.Load(),
		Delta:         delta,
		Rebuilds:      rebuilds,
		DistanceCalls: c.sh.DistanceCalls(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Fanout:        fan,
		Merge:         mrg,
		Planner:       aggregatePlanStats(c.sh),
		Shards:        shards,
		WAL:           ws,
		Storage:       c.storageStats(),
		Admission:     adm,
		Cache:         cst,
	})
}

// handleHealthz is pure liveness: 200 as long as the process serves HTTP,
// regardless of index state. Use /readyz to gate traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 until every collection has been
// built and replayed, 200 after. Because Run starts the listener before
// bootstrapping, a load balancer polling /readyz sees the server come up
// and hold traffic until it can actually answer.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
