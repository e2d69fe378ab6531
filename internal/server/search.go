// The read path: /search (single and batch) and /knn, with the admission and
// deadline they share. Each handler checks its queries with ranking.Check
// against the index's k before admission, so a bad batch member rejects the
// whole batch; the index checks each query again, and a query it rejects —
// an insert into an empty collection may fix another size in between — is a
// 400 too (writeSearchError).
package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"topk/internal/qcache"
	"topk/internal/ranking"
)

// searchRequest is the /search payload: exactly one of Query or Queries,
// with either one shared Theta or (batch only) one theta per query.
type searchRequest struct {
	Query   ranking.Ranking   `json:"query,omitempty"`
	Queries []ranking.Ranking `json:"queries,omitempty"`
	Theta   float64           `json:"theta"`
	Thetas  []float64         `json:"thetas,omitempty"`
}

// resultJSON augments a raw result with its normalized distance. The reply
// types document the /search and /knn replies, which appendSearch and
// appendKNN render as json.Encoder renders these.
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
	k := c.idx.K()
	for i, q := range queries {
		if err := ranking.Check(q, k); err != nil {
			httpError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
	}

	tr.addStage("parse", time.Since(parseStart))
	traceTheta := req.Theta
	if req.Thetas != nil {
		traceTheta = req.Thetas[0]
	}
	tr.setQueryShape(traceTheta, len(queries), k)

	ctx, release, ok := s.admitRead(c, w, r, tr, int64(len(queries)))
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	answers, err := s.runSearch(ctx, c, req, queries, tr)
	if err != nil {
		writeSearchError(w, "search", err)
		return
	}
	c.queries.Add(uint64(len(queries)))
	respondStart := time.Now()
	defer func() { tr.addStage("respond", time.Since(respondStart)) }()
	writeReply(w, func(b []byte) []byte {
		// K again: an insert may have sized an empty collection since the check.
		return appendSearch(b, c.idx.K(), time.Since(start).Microseconds(), req.Query == nil, answers)
	})
}

// runSearch answers a validated /search request. A single query goes through
// cachedSearch. A batch, uniform or mixed radii alike, bypasses the cache and
// answers its members in order on the request goroutine: ctx is checked
// before each member and the first member error ends the batch, so a dead
// client or a passed deadline stops it at the next member. It is traced like
// a single miss — one "search" stage plus the distance calls.
func (s *Server) runSearch(ctx context.Context, c *Collection, req searchRequest, queries []ranking.Ranking, tr *requestTrace) ([][]ranking.Result, error) {
	if req.Query != nil {
		res, err := s.cachedSearch(ctx, c, tr, req.Query, qcache.Key{Kind: "search", Theta: req.Theta},
			func() ([]ranking.Result, uint64, error) {
				return c.idx.SearchTraced(req.Query, req.Theta)
			})
		return [][]ranking.Result{res}, err
	}
	c.batches.Add(1)
	start := time.Now()
	out := make([][]ranking.Result, len(queries))
	var calls uint64
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		theta := req.Theta
		if req.Thetas != nil {
			theta = req.Thetas[i]
		}
		res, n, err := c.idx.SearchTraced(q, theta)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i], calls = res, calls+n
	}
	tr.addSearch(time.Since(start), calls)
	return out, nil
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

// handleKNN answers an exact k-nearest-neighbor query with every served
// kind's native posting-list KNN. Its trace carries the stage names /search
// uses (cache, search, respond) and no distance calls.
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
	k := c.idx.K()
	if err := ranking.Check(req.Query, k); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr.addStage("parse", time.Since(parseStart))
	tr.setQueryShape(0, 1, k)
	ctx, release, ok := s.admitRead(c, w, r, tr, 1)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	res, err := s.cachedSearch(ctx, c, tr, req.Query, qcache.Key{Kind: "knn", N: req.N},
		func() ([]ranking.Result, uint64, error) {
			res, err := c.idx.NearestNeighbors(req.Query, req.N)
			return res, 0, err
		})
	if err != nil {
		writeSearchError(w, "knn", err)
		return
	}
	c.knn.Add(1)
	respondStart := time.Now()
	defer func() { tr.addStage("respond", time.Since(respondStart)) }()
	writeReply(w, func(b []byte) []byte {
		return appendKNN(b, c.idx.K(), time.Since(start).Microseconds(), res)
	})
}

// cachedSearch is the sequence a single /search and a /knn share: probe the
// result cache under key (completed here with the collection's scope and the
// query), stage "cache"; on a miss — unless ctx is already done — run search,
// stage "search" plus its distance calls, and cache its answer.
func (s *Server) cachedSearch(ctx context.Context, c *Collection, tr *requestTrace, q ranking.Ranking, key qcache.Key, search func() ([]ranking.Result, uint64, error)) ([]ranking.Result, error) {
	cacheStart := time.Now()
	var (
		gen    uint64
		res    []ranking.Result
		cached bool
	)
	if s.cache != nil {
		// The generation is read BEFORE the search: a mutation landing
		// mid-search makes the entry conservatively stale, never wrongly
		// fresh (see qcache's package comment).
		key.Collection, key.Query = c.cacheScope, queryKey(q)
		gen = c.generation()
		res, cached = s.cache.Get(key, gen)
	}
	tr.addStage("cache", time.Since(cacheStart))
	if cached {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, calls, err := search()
	tr.addSearch(time.Since(start), calls)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, gen, res)
	return res, nil
}

// queryKey is q's cache-key bytes: each item as 4 little-endian bytes, in one
// allocation, so equal rankings, and only those, give equal keys.
func queryKey(q ranking.Ranking) string {
	var b strings.Builder
	b.Grow(4 * len(q))
	for _, it := range q {
		b.Write([]byte{byte(it), byte(it >> 8), byte(it >> 16), byte(it >> 24)})
	}
	return b.String()
}

// admitRead is the front of both read routes: the -default-timeout budget on
// the request context, then admission — the collection's carve first (so a
// flooded tenant queues and sheds within its own share), then the shared
// controller — recorded as stage "admit". release hands all of it back; ok is
// false when the request was shed and the response written.
func (s *Server) admitRead(c *Collection, w http.ResponseWriter, r *http.Request, tr *requestTrace, weight int64) (ctx context.Context, release func(), ok bool) {
	ctx, cancel := r.Context(), func() {}
	if s.defaultTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.defaultTimeout)
	}
	start := time.Now()
	relTenant, err := c.admission.Acquire(ctx, weight)
	if err != nil {
		cancel()
		writeShedError(w, err)
		return nil, nil, false
	}
	relGlobal, err := s.admission.Acquire(ctx, weight)
	if err != nil {
		relTenant()
		cancel()
		writeShedError(w, err)
		return nil, nil, false
	}
	tr.addStage("admit", time.Since(start))
	return ctx, func() { relGlobal(); relTenant(); cancel() }, true
}
