package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"topk"
	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// TestHybridServe drives the hybrid kind end to end over HTTP: routed
// searches match a single-backend reference byte-for-byte, GET /stats
// exposes the aggregated per-backend plan counters, and the engine reports
// itself mutable.
func TestHybridServe(t *testing.T) {
	cfg := dataset.NYTLike(300, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.Workload(rs, cfg, 12, 0.8, cfg.Seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(rs, 3, builderFor("hybrid", 0))
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(sh, "hybrid").routes()
	ref, err := topk.NewInvertedIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0, 0.1, 0.2, 0.3} {
		for _, q := range qs {
			rec := postSearch(t, h, map[string]any{"query": q, "theta": theta})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			var resp searchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			want, err := ref.Search(q, theta)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(want) {
				t.Fatalf("θ=%.2f: %d results, want %d", theta, len(resp.Results), len(want))
			}
			for i, r := range resp.Results {
				if r.ID != want[i].ID || r.Dist != want[i].Dist {
					t.Fatalf("θ=%.2f result %d: got (%d,%d), want (%d,%d)",
						theta, i, r.ID, r.Dist, want[i].ID, want[i].Dist)
				}
			}
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Index != "hybrid" {
		t.Fatalf("implausible stats: %+v", st)
	}
	if len(st.Planner) == 0 {
		t.Fatal("hybrid stats missing planner scoreboard")
	}
	// Every query fans out to all shards, and each shard counts its own plan
	// — on inverted, nothing being forced.
	want := []topk.PlanStats{{Backend: "inverted", Plans: uint64(4 * len(qs) * sh.NumShards())}, {Backend: "adaptsearch"}}
	if !reflect.DeepEqual(st.Planner, want) {
		t.Fatalf("planner scoreboard %+v, want %+v", st.Planner, want)
	}

	// The full write path over HTTP: insert (id continues the sequence),
	// search finds the new ranking at distance 0, update keeps the id,
	// delete retires it, and /stats reflects the tombstone backlog.
	rec = post(t, h, "/insert", `{"ranking":[901,902,903,904,905,906,907,908,909,910]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert on hybrid: status %d, want 200 (%s)", rec.Code, rec.Body)
	}
	var ins mutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != 300 || ins.N != 301 {
		t.Fatalf("insert returned id=%d n=%d, want id=300 n=301", ins.ID, ins.N)
	}
	rec = postSearch(t, h, map[string]any{"query": []int{901, 902, 903, 904, 905, 906, 907, 908, 909, 910}, "theta": 0.0})
	var sr searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != 1 || sr.Results[0].ID != 300 || sr.Results[0].Dist != 0 {
		t.Fatalf("inserted ranking not found: %+v", sr)
	}
	if rec = post(t, h, "/update", `{"id":300,"ranking":[911,902,903,904,905,906,907,908,909,910]}`); rec.Code != http.StatusOK {
		t.Fatalf("update on hybrid: status %d (%s)", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	st = statsResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// The update tombstoned the inserted version on the last shard.
	tombstones := 0
	for _, s := range st.Shards {
		tombstones += s.Tombstones
	}
	if tombstones != 1 || st.Mutations != 2 {
		t.Fatalf("counters after insert+update: tombstones=%d mutations=%d", tombstones, st.Mutations)
	}
	if rec = post(t, h, "/delete", `{"id":300}`); rec.Code != http.StatusOK {
		t.Fatalf("delete on hybrid: status %d (%s)", rec.Code, rec.Body)
	}
	if rec = post(t, h, "/delete", `{"id":300}`); rec.Code != http.StatusNotFound {
		t.Fatalf("re-delete of retired id: status %d, want 404", rec.Code)
	}

	// GET /snapshot works for hybrid (slot view), and shards pinned through
	// the library's Force report their plans on the forced backend.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d", rec.Code)
	}
	forced, err := shard.New(rs, 2, builderFor("hybrid", 0))
	if err != nil {
		t.Fatal(err)
	}
	forceShards(t, forced, "adaptsearch")
	hf := newServer(forced, "hybrid").routes()
	postSearch(t, hf, map[string]any{"query": qs[0], "theta": 0.2})
	rec = httptest.NewRecorder()
	hf.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	st = statsResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for _, b := range st.Planner {
		if b.Backend != "adaptsearch" && b.Plans != 0 {
			t.Fatalf("forced engine planned %s: %+v", b.Backend, st.Planner)
		}
		if b.Backend == "adaptsearch" && b.Plans == 0 {
			t.Fatal("forced backend saw no plans")
		}
	}
}

// TestCalibrateAcceptedAndIgnored: the three spellings of the retired start-up
// calibration still parse — -calibrate on a hybrid server, the library option,
// "calibrate" in a create request — and of the router's scoreboard only the
// plan counters are left on /stats and /metrics.
func TestCalibrateAcceptedAndIgnored(t *testing.T) {
	s, err := New(Config{Kind: "hybrid", WALRoot: t.TempDir(), MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		t.Fatalf("-kind hybrid -calibrate 64: %v", err)
	}
	if err := s.bootstrap(); err != nil {
		t.Fatal(err)
	}
	s.ready.Store(true)
	t.Cleanup(func() { s.closeCollections() })
	if _, err := topk.NewHybridIndexFromSlots(nil, topk.WithHybridCalibration(64)); err != nil {
		t.Fatalf("WithHybridCalibration(64): %v", err)
	}
	h := s.Handler()
	if rec := doJSON(t, h, http.MethodPut, "/collections/x", map[string]any{"kind": "hybrid", "calibrate": 64}); rec.Code != http.StatusCreated {
		t.Fatalf("create with calibrate: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 5; i++ {
		if rec := post(t, h, "/c/x/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 10*i))); rec.Code != http.StatusOK {
			t.Fatalf("insert: %d %s", rec.Code, rec.Body)
		}
	}
	if rec := post(t, h, "/c/x/search", fmt.Sprintf(`{"query":%s,"theta":0.1}`, seqRanking(6, 0))); rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}

	var st struct {
		Planner []map[string]any `json:"planner"`
	}
	if err := json.Unmarshal(get(t, h, "/c/x/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	want := []map[string]any{
		{"backend": "inverted", "plans": float64(s.mustLookup(t, "x").sh.NumShards())},
		{"backend": "adaptsearch", "plans": 0.0},
	}
	if !reflect.DeepEqual(st.Planner, want) {
		t.Fatalf("/stats planner = %v, want exactly %v", st.Planner, want)
	}
	metrics := get(t, h, "/metrics").Body.String()
	if !strings.Contains(metrics, `topkserve_planner_plans_total{collection="x",backend="inverted"}`) {
		t.Error("/metrics lost topkserve_planner_plans_total")
	}
	for _, gone := range []string{"observations_total", "mispredicts_total", "ewma_latency_seconds", "ewma_distance_calls"} {
		if strings.Contains(metrics, "topkserve_planner_"+gone) {
			t.Errorf("/metrics still exports topkserve_planner_%s", gone)
		}
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestKNNEndpoint checks POST /knn against the brute-force oracle across
// the sharded fan-out, plus its validation contract.
func TestKNNEndpoint(t *testing.T) {
	srv, rs, qs := testServer(t)
	h := srv.routes()
	for _, q := range qs[:5] {
		rec := postJSON(t, h, "/knn", map[string]any{"query": q, "n": 7})
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp knnResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(rs, q, 7)
		if resp.Count != len(want) {
			t.Fatalf("count %d, want %d", resp.Count, len(want))
		}
		for i, r := range resp.Results {
			if r.ID != want[i].ID || r.Dist != want[i].Dist {
				t.Fatalf("result %d: got (%d,%d), want (%d,%d)", i, r.ID, r.Dist, want[i].ID, want[i].Dist)
			}
		}
	}
	// n larger than the collection truncates to Len.
	rec := postJSON(t, h, "/knn", map[string]any{"query": qs[0], "n": 100000})
	var resp knnResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(rs) {
		t.Fatalf("oversized n returned %d results, want %d", resp.Count, len(rs))
	}

	for i, body := range []string{
		`{"n":5}`,                                      // missing query
		`{"query":[1,2,3],"n":5}`,                      // wrong k
		`{"query":[1,2,3,4,5,6,7,8,9,10],"n":0}`,       // n must be positive
		`{"query":[1,1,2,3,4,5,6,7,8,9],"n":5}`,        // duplicate items
		`{"query":[1,2,3,4,5,6,7,8,9,10],"n":5,"x":1}`, // unknown field
	} {
		if rec := post(t, h, "/knn", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400 (%s)", i, rec.Code, rec.Body)
		}
	}

	// KNN traffic shows up in /stats.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.KNNQueries != 6 {
		t.Fatalf("knnQueries %d, want 6", st.KNNQueries)
	}
}

// TestBatchModes checks that uniform and mixed batches equal their single
// answers: over -kind inverted-drop and -kind hybrid, every member of a
// 64-query batch — one theta, the same theta per member, or mixed thetas —
// answers byte for byte what a single /search of that query at that theta
// answers, and each batch counts once in /stats.
func TestBatchModes(t *testing.T) {
	cfg := dataset.NYTLike(300, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.Workload(rs, cfg, 64, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	uniform, mixed := make([]float64, len(qs)), make([]float64, len(qs))
	for i := range qs {
		uniform[i], mixed[i] = 0.2, []float64{0.1, 0.2, 0.3}[i%3]
	}
	for _, kind := range []string{"inverted-drop", "hybrid"} {
		sh, err := shard.New(rs, 3, builderFor(kind, 0))
		if err != nil {
			t.Fatal(err)
		}
		h := newServer(sh, kind).routes()

		// single returns a single /search reply's results as sent; an empty
		// answer is omitted there and "[]" in a batch.
		single := func(q ranking.Ranking, theta float64) []byte {
			rec := postSearch(t, h, map[string]any{"query": q, "theta": theta})
			var resp struct {
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: single search status %d: %v (%s)", kind, rec.Code, err, rec.Body)
			}
			if resp.Results == nil {
				return []byte("[]")
			}
			return resp.Results
		}
		for _, c := range []struct {
			body   map[string]any
			thetas []float64
		}{
			{map[string]any{"queries": qs, "theta": 0.2}, uniform},
			{map[string]any{"queries": qs, "thetas": uniform}, uniform},
			{map[string]any{"queries": qs, "thetas": mixed}, mixed},
		} {
			rec := postSearch(t, h, c.body)
			var resp struct {
				Answers []struct {
					Results json.RawMessage `json:"results"`
				} `json:"answers"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: batch status %d: %v (%s)", kind, rec.Code, err, rec.Body)
			}
			if len(resp.Answers) != len(qs) {
				t.Fatalf("%s: %d answers for %d queries", kind, len(resp.Answers), len(qs))
			}
			for i, q := range qs {
				if got, want := resp.Answers[i].Results, single(q, c.thetas[i]); !bytes.Equal(got, want) {
					t.Fatalf("%s: batch query %d (theta %.1f) diverges from its single answer:\n got %s\nwant %s",
						kind, i, c.thetas[i], got, want)
				}
			}
		}

		// Validation: thetas without queries, length mismatch, out of range.
		for i, body := range []map[string]any{
			{"query": qs[0], "thetas": mixed, "theta": 0.2},
			{"queries": qs, "thetas": mixed[:2]},
			{"queries": qs, "thetas": append([]float64{1.5}, mixed[1:]...)},
		} {
			if rec := postSearch(t, h, body); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: case %d: status %d, want 400 (%s)", kind, i, rec.Code, rec.Body)
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st statsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Batches != 3 {
			t.Fatalf("%s: batches %d, want 3", kind, st.Batches)
		}
		if (st.Planner != nil) != (kind == "hybrid") {
			t.Fatalf("%s: planner stats %+v", kind, st.Planner)
		}
	}
}

// TestHybridServeMutationDifferential is the serving-layer acceptance test
// of the mutable hybrid: a sharded -kind hybrid server absorbs a random
// mutation workload over HTTP — with the delta ratio set low enough that
// compactions trigger mid-workload — while /search and /knn answers stay
// byte-identical to the linear-scan oracle throughout.
func TestHybridServeMutationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	rs := difftest.RandomCollection(rng, 240, 8, 150)
	o := difftest.NewOracle(rs)
	sh, err := shard.New(rs, 3, builderFor("hybrid", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(sh, "hybrid").routes()

	checkSearch := func(q ranking.Ranking, theta float64) {
		t.Helper()
		rec := postSearch(t, h, map[string]any{"query": q, "theta": theta})
		if rec.Code != http.StatusOK {
			t.Fatalf("search: %d %s", rec.Code, rec.Body)
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want, _ := o.Search(q, theta)
		if len(resp.Results) != len(want) {
			t.Fatalf("θ=%.2f: %d results, oracle %d", theta, len(resp.Results), len(want))
		}
		for i, r := range resp.Results {
			if r.ID != want[i].ID || r.Dist != want[i].Dist {
				t.Fatalf("θ=%.2f result %d: got (%d,%d), want (%d,%d)",
					theta, i, r.ID, r.Dist, want[i].ID, want[i].Dist)
			}
		}
	}

	for op := 0; op < 300; op++ {
		switch c := rng.Intn(4); {
		case c < 2: // insert
			r := difftest.RandomRanking(rng, 8, 150)
			rec := post(t, h, "/insert", fmt.Sprintf(`{"ranking":%s}`, mustJSON(t, r)))
			if rec.Code != http.StatusOK {
				t.Fatalf("insert: %d %s", rec.Code, rec.Body)
			}
			var resp mutateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if want := o.Insert(r); resp.ID != want {
				t.Fatalf("insert id %d, oracle assigned %d", resp.ID, want)
			}
		case c == 2: // delete
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if rec := post(t, h, "/delete", fmt.Sprintf(`{"id":%d}`, id)); rec.Code != http.StatusOK {
				t.Fatalf("delete(%d): %d %s", id, rec.Code, rec.Body)
			}
			if err := o.Delete(id); err != nil {
				t.Fatal(err)
			}
		default: // update
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			r := difftest.RandomRanking(rng, 8, 150)
			if rec := post(t, h, "/update", fmt.Sprintf(`{"id":%d,"ranking":%s}`, id, mustJSON(t, r))); rec.Code != http.StatusOK {
				t.Fatalf("update(%d): %d %s", id, rec.Code, rec.Body)
			}
			if err := o.Update(id, r); err != nil {
				t.Fatal(err)
			}
		}
		if op%10 == 0 {
			checkSearch(difftest.RandomRanking(rng, 8, 150), difftest.Thetas[rng.Intn(len(difftest.Thetas))])
		}
	}

	// The workload overflowed the 5% ratio many times over: the compactions
	// it triggered ran synchronously and are counted.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rebuilds == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}

	// Post-compaction: range and KNN answers still match the oracle.
	for trial := 0; trial < 10; trial++ {
		checkSearch(difftest.RandomRanking(rng, 8, 150), difftest.Thetas[rng.Intn(len(difftest.Thetas))])
	}
	q := difftest.RandomRanking(rng, 8, 150)
	rec = post(t, h, "/knn", fmt.Sprintf(`{"query":%s,"n":7}`, mustJSON(t, q)))
	if rec.Code != http.StatusOK {
		t.Fatalf("knn: %d %s", rec.Code, rec.Body)
	}
	var kr knnResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &kr); err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(o.Slots(), q, 7)
	if len(kr.Results) != len(want) {
		t.Fatalf("knn: %d results, want %d", len(kr.Results), len(want))
	}
	for i, r := range kr.Results {
		if r.ID != want[i].ID || r.Dist != want[i].Dist {
			t.Fatalf("knn result %d: got (%d,%d), want (%d,%d)", i, r.ID, r.Dist, want[i].ID, want[i].Dist)
		}
	}
}

// bruteKNN ranks live slots by (distance, id).
func bruteKNN(slots []ranking.Ranking, q ranking.Ranking, n int) []ranking.Result {
	var all []ranking.Result
	for id, r := range slots {
		if r == nil {
			continue
		}
		all = append(all, ranking.Result{ID: ranking.ID(id), Dist: ranking.Footrule(q, r)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
