// Multi-tenant registry tests: the collection lifecycle over HTTP, manifest
// recovery across restarts, the drop drain under concurrent traffic,
// cross-tenant cache isolation, and the JSON fallback + bounded route label
// for unmatched requests.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/difftest"
	"topk/internal/qcache"
	"topk/internal/ranking"
)

// newRegistryServer builds a bootstrapped multi-tenant server rooted at
// walRoot: the default collection starts empty (kind hybrid), dynamically
// created collections are durable and recovered by the next construction on
// the same root.
func newRegistryServer(t *testing.T, walRoot string) *Server {
	t.Helper()
	s, err := New(Config{Kind: "hybrid", WALRoot: walRoot, MaxConcurrency: -1, CacheEntries: 256, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	s.ready.Store(true)
	t.Cleanup(func() { s.closeCollections() })
	return s
}

// seqRanking renders a JSON ranking [start, start+1, ..., start+k-1].
func seqRanking(k, start int) string {
	items := make([]string, k)
	for i := range items {
		items[i] = fmt.Sprint(start + i)
	}
	return "[" + strings.Join(items, ",") + "]"
}

func decodeInfo(t *testing.T, body []byte) collectionInfo {
	t.Helper()
	var ci collectionInfo
	if err := json.Unmarshal(body, &ci); err != nil {
		t.Fatalf("collection info not JSON: %v (%s)", err, body)
	}
	return ci
}

// TestCollectionLifecycleAcrossRestart is the end-to-end registry property:
// create → mutate → checkpoint → restart (manifest recovery) → drop →
// recreate under the same name with a different k.
func TestCollectionLifecycleAcrossRestart(t *testing.T) {
	root := t.TempDir()
	s1 := newRegistryServer(t, root)
	h1 := s1.Handler()

	// Create a durable collection with a declared ranking size.
	rec := doJSON(t, h1, http.MethodPut, "/collections/alpha", map[string]any{"k": 8, "shards": 2})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	ci := decodeInfo(t, rec.Body.Bytes())
	if ci.Name != "alpha" || ci.K != 8 || ci.N != 0 || ci.WAL == nil {
		t.Fatalf("created info: %+v", ci)
	}
	// A second create of the same name conflicts.
	if rec := doJSON(t, h1, http.MethodPut, "/collections/alpha", nil); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409 (%s)", rec.Code, rec.Body)
	}

	// Mutate: 30 inserts, one delete, one update.
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf(`{"ranking":%s}`, seqRanking(8, 100+16*i))
		if rec := post(t, h1, "/c/alpha/insert", body); rec.Code != http.StatusOK {
			t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := post(t, h1, "/c/alpha/delete", `{"id":3}`); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h1, "/c/alpha/update", fmt.Sprintf(`{"id":5,"ranking":%s}`, seqRanking(8, 9000))); rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body)
	}

	// Checkpoint half-way, then more mutations that only the log holds.
	rec = doJSON(t, h1, http.MethodPost, "/c/alpha/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	var cp checkpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Live != 29 {
		t.Fatalf("checkpoint live=%d, want 29", cp.Live)
	}
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"ranking":%s}`, seqRanking(8, 2000+16*i))
		if rec := post(t, h1, "/c/alpha/insert", body); rec.Code != http.StatusOK {
			t.Fatalf("post-checkpoint insert %d: %d %s", i, rec.Code, rec.Body)
		}
	}

	// "Crash" and restart on the same root: the manifest brings alpha back,
	// checkpoint plus logged suffix.
	if err := s1.closeCollections(); err != nil {
		t.Fatal(err)
	}
	s2 := newRegistryServer(t, root)
	h2 := s2.Handler()
	rec = doJSON(t, h2, http.MethodGet, "/collections/alpha", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get after restart: %d %s", rec.Code, rec.Body)
	}
	ci = decodeInfo(t, rec.Body.Bytes())
	if ci.K != 8 || ci.N != 34 || ci.WAL == nil || ci.WAL.Replayed == 0 {
		t.Fatalf("recovered info: %+v", ci)
	}
	// The updated ranking is findable at distance 0, the deleted id retired.
	rec = post(t, h2, "/c/alpha/search", fmt.Sprintf(`{"query":%s,"theta":0}`, seqRanking(8, 9000)))
	var sr searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != 1 || sr.Results[0].ID != 5 || sr.Results[0].Dist != 0 {
		t.Fatalf("recovered update lost: %+v", sr)
	}
	if rec := post(t, h2, "/c/alpha/delete", `{"id":3}`); rec.Code != http.StatusNotFound {
		t.Fatalf("recovered tombstone revived: %d %s", rec.Code, rec.Body)
	}
	// The listing shows both tenants.
	rec = doJSON(t, h2, http.MethodGet, "/collections", nil)
	var listing struct {
		Collections []collectionInfo `json:"collections"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Collections) != 2 {
		t.Fatalf("listing has %d collections, want 2: %s", len(listing.Collections), rec.Body)
	}

	// Drop, verify the WAL directory is gone, recreate under the same name
	// with a different k: a fresh, empty collection.
	if rec := doJSON(t, h2, http.MethodDelete, "/collections/alpha", nil); rec.Code != http.StatusOK {
		t.Fatalf("drop: %d %s", rec.Code, rec.Body)
	}
	if _, err := os.Stat(manifestPath(root)); err != nil {
		t.Fatalf("manifest gone after drop: %v", err)
	}
	if _, err := os.Stat(root + "/alpha"); !os.IsNotExist(err) {
		t.Fatalf("dropped collection's WAL dir still on disk: %v", err)
	}
	if rec := post(t, h2, "/c/alpha/search", fmt.Sprintf(`{"query":%s,"theta":0}`, seqRanking(8, 100))); rec.Code != http.StatusNotFound {
		t.Fatalf("search on dropped collection: %d, want 404", rec.Code)
	}
	rec = doJSON(t, h2, http.MethodPut, "/collections/alpha", map[string]any{"k": 5})
	if rec.Code != http.StatusCreated {
		t.Fatalf("recreate: %d %s", rec.Code, rec.Body)
	}
	ci = decodeInfo(t, rec.Body.Bytes())
	if ci.K != 5 || ci.N != 0 {
		t.Fatalf("recreated info: %+v", ci)
	}
	// The old size is rejected, the new accepted.
	if rec := post(t, h2, "/c/alpha/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(8, 100))); rec.Code != http.StatusBadRequest {
		t.Fatalf("old-k insert after recreate: %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if rec := post(t, h2, "/c/alpha/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(5, 100))); rec.Code != http.StatusOK {
		t.Fatalf("new-k insert after recreate: %d %s", rec.Code, rec.Body)
	}

	// Restart once more: the recreation (not the dropped instance) survives.
	if err := s2.closeCollections(); err != nil {
		t.Fatal(err)
	}
	s3 := newRegistryServer(t, root)
	rec = doJSON(t, s3.Handler(), http.MethodGet, "/collections/alpha", nil)
	ci = decodeInfo(t, rec.Body.Bytes())
	if ci.K != 5 || ci.N != 1 {
		t.Fatalf("post-recreate restart: %+v", ci)
	}
}

// TestCreateValidation pins the 400/404/409 contract of the lifecycle routes.
func TestCreateValidation(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()
	for _, c := range []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad name", http.MethodPut, "/collections/no%2Fslash", "", http.StatusBadRequest},
		{"name too long", http.MethodPut, "/collections/" + strings.Repeat("a", 65), "", http.StatusBadRequest},
		{"immutable kind", http.MethodPut, "/collections/x", `{"kind":"bktree"}`, http.StatusBadRequest},
		{"unknown kind", http.MethodPut, "/collections/x", `{"kind":"nope"}`, http.StatusBadRequest},
		{"negative k", http.MethodPut, "/collections/x", `{"k":-1}`, http.StatusBadRequest},
		{"weight out of range", http.MethodPut, "/collections/x", `{"weight":1.5}`, http.StatusBadRequest},
		{"retired kind", http.MethodPut, "/collections/x", `{"kind":"coarse"}`, http.StatusBadRequest},
		{"retired F&V kind", http.MethodPut, "/collections/x", `{"kind":"inverted"}`, http.StatusBadRequest},
		{"retired ListMerge kind", http.MethodPut, "/collections/x", `{"kind":"merge"}`, http.StatusBadRequest},
		{"retired maxTheta", http.MethodPut, "/collections/x", `{"maxTheta":0.3}`, http.StatusBadRequest},
		// A create request cannot force a backend: forceBackend is an unknown
		// field, whatever its value.
		{"forceBackend", http.MethodPut, "/collections/x", `{"forceBackend":"adaptsearch"}`, http.StatusBadRequest},
		{"unknown forced backend", http.MethodPut, "/collections/x", `{"kind":"hybrid","forceBackend":"warp"}`, http.StatusBadRequest},
		{"forced backend the hybrid no longer builds", http.MethodPut, "/collections/x", `{"kind":"hybrid","forceBackend":"coarse"}`, http.StatusBadRequest},
		{"unknown field", http.MethodPut, "/collections/x", `{"knid":"hybrid"}`, http.StatusBadRequest},
		{"drop unknown", http.MethodDelete, "/collections/ghost", "", http.StatusNotFound},
		{"drop default", http.MethodDelete, "/collections/default", "", http.StatusConflict},
		{"get unknown", http.MethodGet, "/collections/ghost", "", http.StatusNotFound},
	} {
		t.Run(c.name, func(t *testing.T) {
			var body any
			if c.body != "" {
				body = json.RawMessage(c.body)
			}
			rec := doJSON(t, h, c.method, c.path, body)
			if rec.Code != c.want {
				t.Fatalf("%s %s: status %d, want %d (%s)", c.method, c.path, rec.Code, c.want, rec.Body)
			}
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.Code == "" {
				t.Fatalf("error response not the JSON contract: %s", rec.Body)
			}
			// A refused kind names the served ones.
			if strings.HasSuffix(c.name, " kind") && !strings.Contains(e.Error, "hybrid|inverted-drop") {
				t.Fatalf("%s: error %q does not name hybrid|inverted-drop", c.name, e.Error)
			}
		})
	}
}

// TestDropDrainsInflightSearches races a drop against a pool of concurrent
// searchers: every response must be 200 (admitted before the drop) or 404
// (after), never a 5xx — the drain contract.
func TestDropDrainsInflightSearches(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()
	if rec := doJSON(t, h, http.MethodPut, "/collections/victim", map[string]any{"kind": "inverted-drop", "k": 6}); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 50; i++ {
		if rec := post(t, h, "/c/victim/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 10+8*i))); rec.Code != http.StatusOK {
			t.Fatalf("insert: %d %s", rec.Code, rec.Body)
		}
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		bad  atomic.Int64
	)
	body := fmt.Sprintf(`{"query":%s,"theta":0.3}`, seqRanking(6, 10))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := post(t, h, "/c/victim/search", body)
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					bad.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // searchers in flight
	if rec := doJSON(t, h, http.MethodDelete, "/collections/victim", nil); rec.Code != http.StatusOK {
		t.Fatalf("drop under load: %d %s", rec.Code, rec.Body)
	}
	time.Sleep(10 * time.Millisecond) // let post-drop 404s accumulate
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d search responses were neither 200 nor 404 across the drop", n)
	}
	if rec := post(t, h, "/c/victim/search", body); rec.Code != http.StatusNotFound {
		t.Fatalf("post-drop search: %d, want 404", rec.Code)
	}
}

// TestCrossTenantCacheIsolation is the differential the shared query cache
// must pass: two collections with identical shapes but different contents
// answer the same query from their own data — and a drop/recreate cycle
// never revives the predecessor's cached entries.
func TestCrossTenantCacheIsolation(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.cache = qcache.New(256)
	h := srv.Handler()
	for _, name := range []string{"red", "blue"} {
		if rec := doJSON(t, h, http.MethodPut, "/collections/"+name, map[string]any{"kind": "inverted-drop", "k": 6}); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
		}
	}
	probe := seqRanking(6, 500)
	// Only red holds the probe ranking.
	if rec := post(t, h, "/c/red/insert", fmt.Sprintf(`{"ranking":%s}`, probe)); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/c/blue/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 900))); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}

	search := func(coll string) searchResponse {
		t.Helper()
		rec := post(t, h, "/c/"+coll+"/search", fmt.Sprintf(`{"query":%s,"theta":0}`, probe))
		if rec.Code != http.StatusOK {
			t.Fatalf("search %s: %d %s", coll, rec.Code, rec.Body)
		}
		var sr searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	// Heat red's cache entry, repeat it (a hit), then ask blue the same
	// query: a shared-key cache would leak red's answer.
	if sr := search("red"); sr.Count != 1 {
		t.Fatalf("red does not hold the probe: %+v", sr)
	}
	search("red")
	if st := srv.cache.Stats(); st.Hits == 0 {
		t.Fatalf("repeat query missed the cache: %+v", st)
	}
	if sr := search("blue"); sr.Count != 0 {
		t.Fatalf("blue served red's cached answer: %+v", sr)
	}

	// Drop red and recreate it empty: the same query must answer from the
	// new (empty) instance, not the predecessor's cache line.
	if rec := doJSON(t, h, http.MethodDelete, "/collections/red", nil); rec.Code != http.StatusOK {
		t.Fatalf("drop: %d %s", rec.Code, rec.Body)
	}
	if rec := doJSON(t, h, http.MethodPut, "/collections/red", map[string]any{"kind": "inverted-drop", "k": 6}); rec.Code != http.StatusCreated {
		t.Fatalf("recreate: %d %s", rec.Code, rec.Body)
	}
	if sr := search("red"); sr.Count != 0 {
		t.Fatalf("recreated collection served its predecessor's cache: %+v", sr)
	}
}

// TestLegacyRoutesAliasDefaultCollection pins the byte-compatibility of the
// classic single-collection routes: /search and /c/default/search give the
// same answers, /stats and /c/default/stats the same shape.
func TestLegacyRoutesAliasDefaultCollection(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.Handler()
	body, err := json.Marshal(map[string]any{"query": qs[0], "theta": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var legacy, named searchResponse
	if rec := post(t, h, "/search", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("/search: %d %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &legacy); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, h, "/c/default/search", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("/c/default/search: %d %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &named); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Results, named.Results) || legacy.Count != named.Count {
		t.Fatalf("legacy and named answers diverge:\n%+v\n%+v", legacy, named)
	}
	a := statsOf(t, h)
	rec := get(t, h, "/c/default/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/c/default/stats: %d %s", rec.Code, rec.Body)
	}
	var namedStats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &namedStats); err != nil {
		t.Fatal(err)
	}
	if namedStats.N != a.N || namedStats.K != a.K || namedStats.Index != a.Index {
		t.Fatalf("stats diverge between routes: %+v vs %+v", namedStats, a)
	}
}

// TestFallbackErrorsAreJSON pins the fallback contract: unknown routes and
// method mismatches answer with the {"error","code"} body, a 405 keeps the
// mux's Allow header, and both collapse onto the single "other" route label.
func TestFallbackErrorsAreJSON(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()

	rec := get(t, h, "/no/such/route")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("fallback 404 content type %q", ct)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "not_found" {
		t.Fatalf("fallback 404 body: %s", rec.Body)
	}

	rec = get(t, h, "/search") // POST-only route
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("method mismatch: %d, want 405 (%s)", rec.Code, rec.Body)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodPost) {
		t.Fatalf("405 without Allow header (have %q)", allow)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "method_not_allowed" {
		t.Fatalf("fallback 405 body: %s", rec.Body)
	}

	// Both fallbacks landed on the one "other" route label — unknown paths
	// cannot mint per-path label values.
	doc := scrape(t, h)
	if got := doc.one(t, "topkserve_http_requests_total",
		map[string]string{"route": "other", "code": "404"}).value; got != 1 {
		t.Errorf(`http_requests_total{route="other",code="404"} = %v, want 1`, got)
	}
	if got := doc.one(t, "topkserve_http_requests_total",
		map[string]string{"route": "other", "code": "405"}).value; got != 1 {
		t.Errorf(`http_requests_total{route="other",code="405"} = %v, want 1`, got)
	}
	for _, s := range doc.find("topkserve_http_requests_total") {
		if strings.Contains(s.labels["route"], "/no/such") {
			t.Fatalf("unmatched path minted a route label: %+v", s)
		}
	}
}

// TestEmptyCollectionContract pins the declared-k and first-insert-defines-k
// semantics of collections created empty.
func TestEmptyCollectionContract(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()

	// Declared k: queries are validated against it even while empty, and
	// search/knn answer the empty set instead of probing sub-indices.
	if rec := doJSON(t, h, http.MethodPut, "/collections/decl", map[string]any{"kind": "inverted-drop", "k": 6}); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/c/decl/search", fmt.Sprintf(`{"query":%s,"theta":0.2}`, seqRanking(4, 1))); rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong-k search on empty: %d, want 400 (%s)", rec.Code, rec.Body)
	}
	rec := post(t, h, "/c/decl/search", fmt.Sprintf(`{"query":%s,"theta":0.2}`, seqRanking(6, 1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search on empty: %d %s", rec.Code, rec.Body)
	}
	var sr searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.Count != 0 {
		t.Fatalf("empty search answer: %s", rec.Body)
	}
	rec = post(t, h, "/c/decl/knn", fmt.Sprintf(`{"query":%s,"n":3}`, seqRanking(6, 1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("knn on empty: %d %s", rec.Code, rec.Body)
	}
	var kr knnResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &kr); err != nil || kr.Count != 0 {
		t.Fatalf("empty knn answer: %s", rec.Body)
	}

	// Undeclared k: the first insert defines the size, later mismatches 400.
	if rec := doJSON(t, h, http.MethodPut, "/collections/free", map[string]any{"kind": "inverted-drop"}); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/c/free/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(3, 1))); rec.Code != http.StatusOK {
		t.Fatalf("first insert: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/c/free/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(4, 100))); rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched second insert: %d, want 400 (%s)", rec.Code, rec.Body)
	}
	rec = doJSON(t, h, http.MethodGet, "/collections/free", nil)
	if ci := decodeInfo(t, rec.Body.Bytes()); ci.K != 3 || ci.N != 1 {
		t.Fatalf("first insert did not define k: %+v", ci)
	}

	// Only a mutation that succeeds defines k: a rejected update of an
	// unknown id must not pin its ranking's size on the collection.
	for _, kind := range []string{"inverted-drop", "hybrid"} {
		if rec := doJSON(t, h, http.MethodPut, "/collections/"+kind, map[string]any{"kind": kind}); rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		if rec := post(t, h, "/c/"+kind+"/update", fmt.Sprintf(`{"id":0,"ranking":%s}`, seqRanking(4, 1))); rec.Code != http.StatusNotFound {
			t.Fatalf("%s: update of unknown id: %d, want 404 (%s)", kind, rec.Code, rec.Body)
		}
		if rec := post(t, h, "/c/"+kind+"/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(5, 1))); rec.Code != http.StatusOK {
			t.Fatalf("%s: insert after the failed update: %d, want 200 (%s)", kind, rec.Code, rec.Body)
		}
	}
}

// TestWALRankingSizeCap pins the k bound of every collection, durable or in
// memory: the inverted family's postings (and the WAL record format) store
// ranks in one byte, so ranking sizes above 255 are a 400 both at create
// (declared k) and at the defining first insert, never a 500 — and the
// rejected insert leaves the collection empty.
func TestWALRankingSizeCap(t *testing.T) {
	for _, c := range []struct {
		name string
		srv  func(t *testing.T) *Server
	}{
		{"durable root", func(t *testing.T) *Server { return newRegistryServer(t, t.TempDir()) }},
		{"in-memory", func(t *testing.T) *Server {
			s := newServer(nil, "hybrid")
			s.ready.Store(true)
			return s
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := c.srv(t).Handler()
			if rec := doJSON(t, h, http.MethodPut, "/collections/big", map[string]any{"k": 300}); rec.Code != http.StatusBadRequest {
				t.Fatalf("create k=300: %d, want 400 (%s)", rec.Code, rec.Body)
			}
			if rec := doJSON(t, h, http.MethodPut, "/collections/big", nil); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
			if rec := post(t, h, "/c/big/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(300, 1))); rec.Code != http.StatusBadRequest {
				t.Fatalf("first insert k=300: %d, want 400 (%s)", rec.Code, rec.Body)
			}
			if ci := decodeInfo(t, doJSON(t, h, http.MethodGet, "/collections/big", nil).Body.Bytes()); ci.N != 0 || ci.K != 0 {
				t.Fatalf("rejected insert changed the collection: %+v", ci)
			}
			if rec := post(t, h, "/c/big/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(200, 1))); rec.Code != http.StatusOK {
				t.Fatalf("k=200 insert: %d %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestStaleManifestForceBackendRecoversUnforced restarts on a manifest whose
// entry names what this server no longer does — a forced backend, whether one
// the hybrid stopped building (blocked, coarse and bktree were legal names
// once) or adaptsearch (forceBackend was a create option once), or a retired
// kind (coarse and coarse-drop were servable once, F&V's inverted and
// ListMerge's merge until both gave way to F&V+Drop): the collection must come
// back as an unforced hybrid — data intact and answering like the oracle,
// every query answered by inverted — with one log line naming it and the
// dropped value, and the rewrite must reach the next manifest write.
func TestStaleManifestForceBackendRecoversUnforced(t *testing.T) {
	for _, c := range []struct {
		name    string
		create  map[string]any
		stale   func(*manifestOptions)
		dropped string
	}{
		{"retired forceBackend", map[string]any{"k": 6, "shards": 2},
			func(o *manifestOptions) { o.ForceBackend = "coarse" }, `"coarse"`},
		{"adaptsearch", map[string]any{"k": 6, "shards": 2},
			func(o *manifestOptions) { o.ForceBackend = "adaptsearch" }, `"adaptsearch"`},
		{"retired kind", map[string]any{"kind": "inverted-drop", "k": 6, "shards": 2},
			func(o *manifestOptions) { o.Kind = "coarse-drop" }, `"coarse-drop"`},
		{"retired kind inverted", map[string]any{"kind": "inverted-drop", "k": 6},
			func(o *manifestOptions) { o.Kind = "inverted" }, `"inverted"`},
		{"retired kind merge", map[string]any{"kind": "inverted-drop", "k": 6},
			func(o *manifestOptions) { o.Kind = "merge" }, `"merge"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			s1 := newRegistryServer(t, root)
			h1 := s1.Handler()
			if rec := doJSON(t, h1, http.MethodPut, "/collections/pinned", c.create); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
			var slots []ranking.Ranking
			for i := 0; i < 7; i++ {
				r := seqRanking(6, 10*i)
				if rec := post(t, h1, "/c/pinned/insert", fmt.Sprintf(`{"ranking":%s}`, r)); rec.Code != http.StatusOK {
					t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
				}
				var rk ranking.Ranking
				if err := json.Unmarshal([]byte(r), &rk); err != nil {
					t.Fatal(err)
				}
				slots = append(slots, rk)
			}
			if err := s1.closeCollections(); err != nil {
				t.Fatal(err)
			}
			entries, err := readManifest(manifestPath(root))
			if err != nil || len(entries) != 1 {
				t.Fatalf("manifest: %v, %v", entries, err)
			}
			c.stale(&entries[0].Options)
			if err := writeManifest(manifestPath(root), entries); err != nil {
				t.Fatal(err)
			}

			var logged bytes.Buffer
			s2, err := New(Config{Kind: "hybrid", WALRoot: root, MaxConcurrency: -1, Log: &logged})
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.bootstrap(); err != nil {
				t.Fatalf("bootstrap on a stale manifest entry: %v", err)
			}
			t.Cleanup(func() { s2.closeCollections() })
			coll, ok := s2.lookup("pinned")
			if !ok || coll.idx.Len() != 7 || coll.opts.Kind != "hybrid" {
				t.Fatalf("collection not recovered whole as hybrid: ok=%v", ok)
			}
			difftest.CheckSearch(t, c.name, coll.idx, difftest.NewOracle(slots), rand.New(rand.NewSource(5)), 10, 80)
			var mentions []string
			for _, line := range strings.Split(logged.String(), "\n") {
				if strings.Contains(line, "no longer") {
					mentions = append(mentions, line)
				}
			}
			if len(mentions) != 1 || !strings.Contains(mentions[0], `"pinned"`) || !strings.Contains(mentions[0], c.dropped) {
				t.Fatalf("want one log line naming the collection and %s, have %q", c.dropped, mentions)
			}
			// The next manifest write carries the rewritten options.
			s2.ready.Store(true)
			if rec := doJSON(t, s2.Handler(), http.MethodPut, "/collections/other", nil); rec.Code != http.StatusCreated {
				t.Fatalf("create after recovery: %d %s", rec.Code, rec.Body)
			}
			entries, err = readManifest(manifestPath(root))
			if err != nil || len(entries) != 2 || entries[0].Options.Kind != "hybrid" || entries[0].Options.ForceBackend != "" {
				t.Fatalf("rewritten manifest: %+v, %v", entries, err)
			}
		})
	}
}

// TestManifestEntryWithoutDeltaRatioTakesServerRatio restarts on a manifest
// entry of a non-hybrid kind written when deltaRatio was hybrid-only, so it
// carries none: recovery must give the collection the server's -delta-ratio,
// not 0 — which would disable compaction — and the next manifest write must
// record it.
func TestManifestEntryWithoutDeltaRatioTakesServerRatio(t *testing.T) {
	root := t.TempDir()
	s1 := newRegistryServer(t, root)
	if rec := doJSON(t, s1.Handler(), http.MethodPut, "/collections/old", map[string]any{"kind": "inverted-drop", "shards": 1}); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 100; i++ {
		if rec := post(t, s1.Handler(), "/c/old/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 6*i))); rec.Code != http.StatusOK {
			t.Fatalf("insert: %d %s", rec.Code, rec.Body)
		}
	}
	if err := s1.closeCollections(); err != nil {
		t.Fatal(err)
	}
	entries, err := readManifest(manifestPath(root))
	if err != nil || len(entries) != 1 {
		t.Fatalf("manifest: %v, %v", entries, err)
	}
	entries[0].Options.DeltaRatio = 0
	if err := writeManifest(manifestPath(root), entries); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Kind: "hybrid", DeltaRatio: 0.1, WALRoot: root, MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.bootstrap(); err != nil {
		t.Fatal(err)
	}
	s2.ready.Store(true)
	t.Cleanup(func() { s2.closeCollections() })
	h := s2.Handler()
	for id := 0; id < 11; id++ {
		if rec := post(t, h, "/c/old/delete", fmt.Sprintf(`{"id":%d}`, id)); rec.Code != http.StatusOK {
			t.Fatalf("delete(%d): %d %s", id, rec.Code, rec.Body)
		}
	}
	if c := s2.mustLookup(t, "old"); c.opts.DeltaRatio != 0.1 || c.idx.Rebuilds() != 1 {
		t.Fatalf("recovered with deltaRatio %v and %d compactions after 11 of 100 deletes, want 0.1 and 1", c.opts.DeltaRatio, c.idx.Rebuilds())
	}
	if rec := doJSON(t, h, http.MethodPut, "/collections/other", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create after recovery: %d %s", rec.Code, rec.Body)
	}
	if entries, err = readManifest(manifestPath(root)); err != nil || entries[0].Options.DeltaRatio != 0.1 {
		t.Fatalf("rewritten manifest: %+v, %v", entries, err)
	}
}

// TestManifestCorruptionFailsBootstrap flips one payload byte in the
// manifest: the CRC must catch it and bootstrap must refuse to start.
func TestManifestCorruptionFailsBootstrap(t *testing.T) {
	root := t.TempDir()
	s1 := newRegistryServer(t, root)
	if rec := doJSON(t, s1.Handler(), http.MethodPut, "/collections/a", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if err := s1.closeCollections(); err != nil {
		t.Fatal(err)
	}
	path := manifestPath(root)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Kind: "hybrid", WALRoot: root, MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.bootstrap(); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("bootstrap on corrupt manifest: err=%v, want manifest error", err)
	}
}

// TestOrphanWALDirCleanedOnRecreate simulates a drop that crashed between
// its manifest rewrite and its directory removal: the orphan directory must
// not leak into a fresh collection created under the same name.
func TestOrphanWALDirCleanedOnRecreate(t *testing.T) {
	root := t.TempDir()
	s := newRegistryServer(t, root)
	h := s.Handler()
	if err := os.MkdirAll(root+"/ghost", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root+"/ghost/wal-000001.log", []byte("stale garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, h, http.MethodPut, "/collections/ghost", map[string]any{"k": 4}); rec.Code != http.StatusCreated {
		t.Fatalf("create over orphan dir: %d %s", rec.Code, rec.Body)
	}
	rec := doJSON(t, h, http.MethodGet, "/collections/ghost", nil)
	if ci := decodeInfo(t, rec.Body.Bytes()); ci.N != 0 || ci.WAL == nil || ci.WAL.Replayed != 0 {
		t.Fatalf("orphan contents leaked into the fresh collection: %+v", ci)
	}
}

// TestTenantAdmissionCarve pins the weighted admission contract: a
// collection created with weight w holds at most ceil(w x capacity)
// concurrent search units and sheds its own excess with 429 while other
// tenants keep their share.
func TestTenantAdmissionCarve(t *testing.T) {
	srv, _, qs := testServer(t)
	srv.admission = newAdmission(4, 8, 50*time.Millisecond)
	srv.cfg.MaxQueueWait = 50 * time.Millisecond // carve wait bound for collections created below
	h := srv.Handler()
	if rec := doJSON(t, h, http.MethodPut, "/collections/throttled", map[string]any{"kind": "inverted-drop", "k": 6, "weight": 0.5}); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	c := srv.mustLookup(t, "throttled")
	if got := c.admission.Stats().Capacity; got != 2 {
		t.Fatalf("carve capacity %d, want 2 (0.5 x 4)", got)
	}
	// Saturate the carve from outside: searches against the throttled tenant
	// shed with 429, the default tenant still answers.
	release, err := c.admission.Acquire(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if rec := post(t, h, "/c/throttled/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 1))); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body) // mutations are not admission-gated
	}
	rec := post(t, h, "/c/throttled/search", fmt.Sprintf(`{"query":%s,"theta":0.2}`, seqRanking(6, 1)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant search: %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2}); rec.Code != http.StatusOK {
		t.Fatalf("default tenant starved by a saturated carve: %d %s", rec.Code, rec.Body)
	}
	// The shed is attributed to the tenant's carve on /metrics.
	doc := scrape(t, h)
	if got := doc.one(t, "topkserve_collection_admission_shed_total",
		map[string]string{"collection": "throttled", "reason": "wait_timeout"}).value; got == 0 {
		t.Error("tenant shed not attributed on /metrics")
	}
}

// mustLookup resolves a collection the test created a moment ago.
func (s *Server) mustLookup(t *testing.T, name string) *Collection {
	t.Helper()
	c, ok := s.lookup(name)
	if !ok {
		t.Fatalf("collection %q not in registry", name)
	}
	return c
}

// TestMetricsCollectionLabels checks the per-collection families carry the
// bounded collection label and the registry gauge counts tenants.
func TestMetricsCollectionLabels(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.Handler()
	if rec := doJSON(t, h, http.MethodPut, "/collections/tenant2", map[string]any{"kind": "inverted-drop", "k": 6}); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/c/tenant2/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 1))); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/c/tenant2/search", fmt.Sprintf(`{"query":%s,"theta":0.2}`, seqRanking(6, 1))); rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	if rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2}); rec.Code != http.StatusOK {
		t.Fatalf("default search: %d %s", rec.Code, rec.Body)
	}

	doc := scrape(t, h)
	if got := doc.one(t, "topkserve_collections", nil).value; got != 2 {
		t.Errorf("topkserve_collections = %v, want 2", got)
	}
	for _, coll := range []string{"default", "tenant2"} {
		if got := doc.one(t, "topkserve_queries_total",
			map[string]string{"collection": coll}).value; got != 1 {
			t.Errorf(`queries_total{collection=%q} = %v, want 1`, coll, got)
		}
	}
	if got := doc.one(t, "topkserve_collection_size",
		map[string]string{"collection": "tenant2"}).value; got != 1 {
		t.Errorf("tenant2 collection_size = %v, want 1", got)
	}
	if got := doc.one(t, "topkserve_mutations_total",
		map[string]string{"collection": "tenant2"}).value; got != 1 {
		t.Errorf("tenant2 mutations_total = %v, want 1", got)
	}
}
