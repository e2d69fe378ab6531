// The read path: /search (single and batch) and /knn, with the admission and
// deadline they share.
package server

import (
	"context"
	"net/http"
	"time"

	"topk/internal/qcache"
	"topk/internal/ranking"
	"topk/internal/shard"
)

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
	if !s.decodeJSON(w, r, &req, false) {
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
	if !s.decodeJSON(w, r, &req, false) {
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
