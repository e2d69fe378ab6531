// The HTTP surface of the serving core. Data routes are rooted per
// collection (/c/{name}/...), the classic single-collection routes alias
// the default collection byte-for-byte, lifecycle routes manage the
// registry, and a JSON fallback gives even unmatched routes and method
// mismatches the {"error","code"} contract — with their metrics collapsed
// onto one "other" route label so scraping an unknown path cannot mint
// unbounded label values.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"
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

// instrument wraps a route with the HTTP accounting (requests by status,
// in flight, latency) and the per-request trace (X-Request-ID propagation,
// span recording, /debug/trace ring, slow-query log). The route's counts are
// resolved here, once, so a request takes no lock and builds no string for
// them. The accounting runs in a deferred block so a panicking handler
// cannot leak the in-flight count or drop its trace: the panic is recovered
// into a 500 (when the handler had not started the response yet) and the
// request is counted and traced like any other failure.
func (s *Server) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	rs := s.metrics.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.tracer.begin(route, w, r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.metrics.inflight.Add(1)
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(s.cfg.logw(), "panic serving %s: %v\n%s", route, p, debug.Stack())
				if !sw.wroteHeader {
					httpError(sw, http.StatusInternalServerError, "internal error")
				} else {
					sw.status = http.StatusInternalServerError
				}
			}
			dur := time.Since(start)
			s.metrics.inflight.Add(-1)
			rs.codes[sw.status].Add(1)
			rs.latency.Observe(dur.Seconds())
			s.tracer.finish(tr, sw.status, dur)
		}()
		next(sw, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr)))
	}
}

// decodeJSON parses a request body bounded by the -max-body limit; a false
// return means the error response was already written. The body is read
// whole first, so a body over the limit is a 413 whatever its first bytes
// hold; anything else wrong is a 400. scanQuery takes plain /search and /knn
// bodies, decodeStrict every other body, so accepted values and error texts
// are encoding/json's. With optional set, a body holding no value at all
// leaves v as it was.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	p := bufPool.Get().(*[]byte)
	defer putBuf(p)
	buf := bytes.NewBuffer((*p)[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody))
	*p = buf.Bytes()
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes (raise -max-body)", mbe.Limit)
		return false
	case err != nil:
		err = fmt.Errorf("bad request body: %w", err)
	case scanQuery(*p, v):
		return true
	default:
		err = decodeStrict(*p, v)
	}
	if err != nil && !(optional && errors.Is(err, io.EOF)) {
		httpError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// decodeStrict is the encoding/json path; its error is the 400's message.
// Unknown fields are errors, and so is trailing garbage after the one JSON
// value (which a streaming Decode would leave unread); whitespace is fine.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
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
