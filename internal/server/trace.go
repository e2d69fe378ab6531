// Per-query tracing for the serving core. Every request gets an
// X-Request-ID (propagated from the client or generated), and a span
// recorder captures where its time went: parse → admit → cache → shard
// fan-out → merge → respond for searches (a batch skips the cache). Finished
// traces land in a bounded in-memory ring served at GET /debug/trace, and any
// request slower than -slow-query is additionally written to stderr as one
// line of JSON — enough to
// reconstruct what the query was (route, collection, θ, k, batch size),
// which backends answered it — for every index kind — what it cost (distance
// calls) and which stage ate the time, without attaching a profiler.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"topk/internal/shard"
)

// traceRingSize bounds the /debug/trace history.
const traceRingSize = 256

// traceStage is one named phase of a request's lifecycle.
type traceStage struct {
	Name   string  `json:"name"`
	Micros float64 `json:"micros"`
}

// requestTrace is the span record of one request. It is mutated only by the
// handling goroutine and becomes immutable once pushed into the ring.
type requestTrace struct {
	ID          string    `json:"id"`
	Route       string    `json:"route"`
	Start       time.Time `json:"start"`
	Status      int       `json:"status"`
	TotalMicros float64   `json:"totalMicros"`
	// Collection names the tenant a data route resolved to (empty for
	// process-level routes like /metrics).
	Collection string `json:"collection,omitempty"`
	// Theta, Queries and K describe a search request's shape: threshold
	// (the first of a mixed-radius batch), batch size and ranking size.
	Theta   float64 `json:"theta,omitempty"`
	Queries int     `json:"queries,omitempty"`
	K       int     `json:"k,omitempty"`
	// Backends lists the distinct backends that answered a /search or /knn
	// miss or a batch — inverted, or the hybrid's forced one of its two;
	// DistanceCalls is the request's Footrule cost summed over the shards.
	Backends      []string     `json:"backends,omitempty"`
	DistanceCalls uint64       `json:"distanceCalls,omitempty"`
	Stages        []traceStage `json:"stages,omitempty"`
}

// addStage appends one phase timing. Nil-safe so handlers can record stages
// unconditionally (a nil trace means the handler ran outside instrument).
func (tr *requestTrace) addStage(name string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.Stages = append(tr.Stages, traceStage{Name: name, Micros: float64(d.Nanoseconds()) / 1e3})
}

// addScatter appends a scatter-gather's two phases and records which
// backends answered and what they evaluated.
func (tr *requestTrace) addScatter(qt shard.QueryTrace) {
	if tr == nil {
		return
	}
	tr.Stages = append(tr.Stages,
		traceStage{Name: "fanout", Micros: qt.FanoutMicros}, traceStage{Name: "merge", Micros: qt.MergeMicros})
	tr.Backends, tr.DistanceCalls = qt.Backends, qt.DistanceCalls
}

// setCollection records which tenant the route resolved to.
func (tr *requestTrace) setCollection(name string) {
	if tr == nil {
		return
	}
	tr.Collection = name
}

// setQueryShape records what the search asked for.
func (tr *requestTrace) setQueryShape(theta float64, queries, k int) {
	if tr == nil {
		return
	}
	tr.Theta, tr.Queries, tr.K = theta, queries, k
}

// tracer owns the finished-trace ring and the slow-query log.
type tracer struct {
	slowQuery time.Duration // log requests at least this slow; 0 disables
	slowLog   io.Writer

	mu   sync.Mutex
	ring [traceRingSize]*requestTrace
	next int // ring[next] is the oldest entry (overwritten next)
	n    int // live entries, ≤ traceRingSize
}

func newTracer(slowQuery time.Duration, slowLog io.Writer) *tracer {
	return &tracer{slowQuery: slowQuery, slowLog: slowLog}
}

// begin opens a trace: the request's X-Request-ID is propagated (or
// generated) and echoed on the response so clients can correlate.
func (t *tracer) begin(route string, w http.ResponseWriter, r *http.Request) *requestTrace {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	return &requestTrace{ID: id, Route: route, Start: time.Now()}
}

// finish seals the trace, pushes it into the ring and writes the slow-query
// line when the request crossed the threshold.
func (t *tracer) finish(tr *requestTrace, status int, total time.Duration) {
	tr.Status = status
	tr.TotalMicros = float64(total.Nanoseconds()) / 1e3
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % traceRingSize
	if t.n < traceRingSize {
		t.n++
	}
	t.mu.Unlock()
	if t.slowQuery > 0 && total >= t.slowQuery && t.slowLog != nil {
		if b, err := json.Marshal(tr); err == nil {
			fmt.Fprintf(t.slowLog, "slow-query %s\n", b)
		}
	}
}

// recent returns the ring's traces, most recent first.
func (t *tracer) recent() []*requestTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*requestTrace, 0, t.n)
	for i := 1; i <= t.n; i++ {
		out = append(out, t.ring[(t.next-i+traceRingSize)%traceRingSize])
	}
	return out
}

// newRequestID returns 16 hex chars of crypto randomness.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000-rand-err"
	}
	return hex.EncodeToString(b[:])
}

// traceCtxKey keys the active *requestTrace in the request context.
type traceCtxKey struct{}

// traceFrom returns the request's trace, nil outside instrument.
func traceFrom(r *http.Request) *requestTrace {
	tr, _ := r.Context().Value(traceCtxKey{}).(*requestTrace)
	return tr
}

// statusWriter captures the response status for metrics and traces, and
// whether the header went out — the panic-recovery path in instrument may
// only write a 500 while the response has not started.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.wroteHeader {
		return
	}
	sw.status = code
	sw.wroteHeader = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wroteHeader = true // implicit 200 on first body write
	return sw.ResponseWriter.Write(b)
}

// handleDebugTrace dumps the trace ring, most recent first.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.tracer.recent()})
}
