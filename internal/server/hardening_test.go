package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"topk/internal/admit"
	"topk/internal/dataset"
	"topk/internal/qcache"
	"topk/internal/ranking"
)

// TestClientCancellationAnswers499 sends a search whose request context is
// already dead — the handler must map it to the 499 client-closed-request
// status, not a 500, and must not run the query.
func TestClientCancellationAnswers499(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	before := srv.defColl().idx.DistanceCalls()

	b, err := json.Marshal(map[string]any{"query": qs[0], "theta": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(b)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want 499 (%s)", rec.Code, rec.Body)
	}
	if got := srv.defColl().idx.DistanceCalls(); got != before {
		t.Fatalf("canceled request still evaluated %d distances", got-before)
	}
}

// TestDefaultTimeoutAnswers504 pins the -default-timeout contract: a blown
// deadline is 504 Gateway Timeout on /search and /knn.
func TestDefaultTimeoutAnswers504(t *testing.T) {
	srv, _, qs := testServer(t)
	srv.defaultTimeout = time.Nanosecond // expired before the search starts
	h := srv.routes()

	if rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2}); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("search status %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if rec := postSearch(t, h, map[string]any{"queries": qs, "theta": 0.2}); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("batch status %d, want 504 (%s)", rec.Code, rec.Body)
	}
	b, err := json.Marshal(map[string]any{"query": qs[0], "n": 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/knn", string(b))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("knn status %d, want 504 (%s)", rec.Code, rec.Body)
	}
}

// tripCtx is a request context whose deadline passes the moment trip
// reports true: a deadline that expires at a chosen point of the work instead
// of at a wall-clock instant.
type tripCtx struct {
	context.Context
	trip func() bool
}

func (c tripCtx) Err() error {
	if c.trip() {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

// TestBatchDeadlineStopsBetweenMembers: a batch whose deadline passes while
// its first member runs answers 504, and no later member reaches the index —
// the batch is checked between members and cut at the next one.
func TestBatchDeadlineStopsBetweenMembers(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(400, 10))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(newIndex(t, rs, "inverted", 0), "inverted") // F&V: every member costs distance calls
	idx := srv.defColl().idx
	ref := newIndex(t, rs, "inverted", 0)
	_, _, first, err := ref.SearchTraced(rs[0], 0.2)
	if err != nil || first == 0 {
		t.Fatalf("first member costs %d distance calls (%v); the test needs some", first, err)
	}
	b, err := json.Marshal(map[string]any{"queries": rs[:16], "theta": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := tripCtx{Context: context.Background(), trip: func() bool { return idx.DistanceCalls() > 0 }}
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if got := idx.DistanceCalls(); got != first {
		t.Fatalf("the cut batch made %d distance calls, want the first member's %d alone", got, first)
	}
}

// TestOverloadAnswers429WithRetryAfter fills the admission semaphore and
// verifies the shed contract: 429 Too Many Requests with a Retry-After
// header while the server is saturated, normal service once it drains.
func TestOverloadAnswers429WithRetryAfter(t *testing.T) {
	srv, _, qs := testServer(t)
	srv.admission = admit.New(1, 0, time.Second) // one slot, no queue
	h := srv.routes()

	release, err := srv.admission.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	st := srv.admission.Stats()
	if st.ShedQueueFull == 0 {
		t.Fatalf("shed not accounted: %+v", st)
	}

	release()
	if rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2}); rec.Code != http.StatusOK {
		t.Fatalf("post-drain status %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

// TestQueuedRequestTimesOutWith429 exercises the wait-timeout shed reason:
// with a queue slot available but the semaphore held past -max-queue-wait,
// the queued request gives up with 429.
func TestQueuedRequestTimesOutWith429(t *testing.T) {
	srv, _, qs := testServer(t)
	srv.admission = admit.New(1, 4, 5*time.Millisecond)
	h := srv.routes()
	release, err := srv.admission.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queued-timeout status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if st := srv.admission.Stats(); st.ShedTimeout == 0 {
		t.Fatalf("wait-timeout shed not accounted: %+v", st)
	}
}

// TestPanicRecoveredInto500 pins the instrument satellite fix: a panicking
// handler is answered with 500, its stack goes to Config.Log and the
// in-flight count comes back to zero instead of leaking.
func TestPanicRecoveredInto500(t *testing.T) {
	srv, _, _ := testServer(t)
	var logged bytes.Buffer
	srv.cfg.Log = &logged
	h := srv.instrument("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if v := srv.metrics.inflight.Load(); v != 0 {
		t.Fatalf("in-flight count leaked: %v", v)
	}
	if log := logged.String(); !strings.Contains(log, "panic serving /boom: boom") || !strings.Contains(log, "goroutine ") {
		t.Fatalf("panic stack not in Config.Log: %q", log)
	}
	// The failure is counted and traced like any other request.
	traces := srv.tracer.recent()
	if len(traces) == 0 || traces[0].Status != http.StatusInternalServerError {
		t.Fatalf("panicking request left no 500 trace: %+v", traces)
	}
}

// TestTrailingGarbageRejected pins the decodeJSON satellite fix: exactly one
// JSON value per body — trailing garbage is 400, trailing whitespace fine —
// on every route that reads one, collection create included (whose body is
// optional: none at all still means every default).
func TestTrailingGarbageRejected(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	q, err := json.Marshal(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	good := fmt.Sprintf(`{"query":%s,"theta":0.2}`, q)
	for _, c := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"trailing whitespace", http.MethodPost, "/search", good + " \n\t ", http.StatusOK},
		{"second JSON value", http.MethodPost, "/search", good + `{"theta":0.1}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/search", good + "garbage", http.StatusBadRequest},
		{"trailing garbage on mutation", http.MethodPost, "/delete", `{"id":1}x`, http.StatusBadRequest},
		{"trailing garbage on create", http.MethodPut, "/collections/g1", `{"kind":"hybrid","k":6}garbage`, http.StatusBadRequest},
		{"second JSON value on create", http.MethodPut, "/collections/g2", `{"kind":"hybrid","k":6}{"kind":"coarse"}`, http.StatusBadRequest},
		{"empty body on create", http.MethodPut, "/collections/g3", "", http.StatusCreated},
	} {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
	for _, name := range []string{"g1", "g2"} {
		if _, ok := srv.lookup(name); ok {
			t.Fatalf("rejected create left collection %q behind", name)
		}
	}
}

// freshRanking returns a valid k=10 ranking whose items collide with nothing
// else in the workload (item space far above the generated collections).
func freshRanking(i int) string {
	items := make([]string, 10)
	for j := range items {
		items[j] = fmt.Sprint(1_000_000 + i*16 + j)
	}
	return "[" + strings.Join(items, ",") + "]"
}

// TestCacheDifferentialUnderMutations runs an identical ~1k-op interleaved
// search/mutation workload against a cached and an uncached server over the
// same collection and requires byte-identical search answers throughout —
// the cache must be invisible except for speed. Afterwards the cache must
// show both hits (it worked) and generation invalidations (it noticed every
// mutation).
func TestCacheDifferentialUnderMutations(t *testing.T) {
	cached, _, qs := testServer(t)
	cached.cache = qcache.New(256)
	plain, _, _ := testServer(t)
	hc, hp := cached.routes(), plain.routes()

	rng := rand.New(rand.NewSource(42))
	inserted := []ranking.ID{}
	for i := 0; i < 1000; i++ {
		var path, body string
		switch i % 10 {
		case 0:
			path, body = "/insert", fmt.Sprintf(`{"ranking":%s}`, freshRanking(i))
		case 5:
			path, body = "/update", fmt.Sprintf(`{"id":%d,"ranking":%s}`, rng.Intn(400), freshRanking(i))
		case 7:
			if len(inserted) == 0 {
				continue
			}
			id := inserted[0]
			inserted = inserted[1:]
			path, body = "/delete", fmt.Sprintf(`{"id":%d}`, id)
		default:
			q, err := json.Marshal(qs[rng.Intn(3)])
			if err != nil {
				t.Fatal(err)
			}
			path, body = "/search", fmt.Sprintf(`{"query":%s,"theta":0.2}`, q)
		}
		rc, rp := post(t, hc, path, body), post(t, hp, path, body)
		if rc.Code != rp.Code {
			t.Fatalf("op %d %s: cached %d vs uncached %d (%s / %s)", i, path, rc.Code, rp.Code, rc.Body, rp.Body)
		}
		if rc.Code != http.StatusOK {
			t.Fatalf("op %d %s: status %d (%s)", i, path, rc.Code, rc.Body)
		}
		switch path {
		case "/insert":
			var mr mutateResponse
			if err := json.Unmarshal(rc.Body.Bytes(), &mr); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, mr.ID)
		case "/search":
			var a, b searchResponse
			if err := json.Unmarshal(rc.Body.Bytes(), &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rp.Body.Bytes(), &b); err != nil {
				t.Fatal(err)
			}
			ab, err := json.Marshal(a.Results)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := json.Marshal(b.Results)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ab, bb) || a.Count != b.Count {
				t.Fatalf("op %d: cached answer diverges\n  cached: %s\nuncached: %s", i, ab, bb)
			}
		}
	}
	st := cached.cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("workload produced no cache hits: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("1k mutations invalidated nothing: %+v", st)
	}
}

// TestCacheSurvivesCompaction pins the generation stamp: it counts acked
// mutations only. A compaction rebuilds the index without changing any
// answer, so it must leave the generation — and the cached entries stamped
// with it — where they were; the next mutation invalidates as usual.
func TestCacheSurvivesCompaction(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	sh := newIndex(t, rs, "hybrid", 0)
	srv := newServer(sh, "hybrid")
	srv.cache = qcache.New(64)
	h := srv.routes()

	q, err := json.Marshal(rs[0])
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"query":%s,"theta":0.1}`, q)
	results := func() string {
		t.Helper()
		var resp struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(post(t, h, "/search", body).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return string(resp.Results)
	}
	want := results()

	genBefore := srv.defColl().generation()
	if err := sh.Compact(); err != nil {
		t.Fatal(err)
	}
	if sh.Rebuilds() == 0 {
		t.Fatal("compaction counted no rebuild")
	}
	if srv.defColl().generation() != genBefore {
		t.Fatal("compaction moved the cache generation")
	}
	hits := srv.cache.Stats().Hits
	if got := results(); got != want {
		t.Fatalf("answer changed across compaction:\n got %s\nwant %s", got, want)
	}
	if st := srv.cache.Stats(); st.Hits != hits+1 || st.Invalidations != 0 {
		t.Fatalf("cached entry not served after compaction: %+v", st)
	}

	if rec := post(t, h, "/delete", `{"id":0}`); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	post(t, h, "/search", body)
	if st := srv.cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("stale entry served after a mutation: %+v", st)
	}
}

// TestHardeningMetricFamiliesExposed asserts the new admission and cache
// metric families appear on /metrics once the features are enabled.
func TestHardeningMetricFamiliesExposed(t *testing.T) {
	srv, _, qs := testServer(t)
	srv.admission = admit.New(4, 8, time.Second)
	srv.cache = qcache.New(64)
	h := srv.routes()
	postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2})
	postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"topkserve_admission_admitted_total",
		`topkserve_admission_shed_total{reason="queue_full"}`,
		`topkserve_admission_shed_total{reason="wait_timeout"}`,
		`topkserve_admission_shed_total{reason="canceled"}`,
		"topkserve_admission_capacity",
		"topkserve_admission_in_use",
		"topkserve_admission_queue_depth",
		"topkserve_admission_queue_wait_seconds",
		"topkserve_cache_hits_total",
		"topkserve_cache_misses_total",
		"topkserve_cache_invalidations_total",
		"topkserve_cache_evictions_total",
		"topkserve_cache_entries",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("metrics exposition missing %s", family)
		}
	}
	// The two identical searches must register as one miss, one hit.
	var stats statsResponse
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission == nil || stats.Admission.Admitted < 2 {
		t.Fatalf("admission stats absent or wrong on /stats: %+v", stats.Admission)
	}
	if stats.Cache == nil || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats absent or wrong on /stats: %+v", stats.Cache)
	}
}
