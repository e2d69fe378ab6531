package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"topk"
	"topk/internal/dataset"
	"topk/internal/kinds"
	"topk/internal/persist"
	"topk/internal/ranking"
	"topk/internal/wal"
)

func testServer(t *testing.T) (*Server, []ranking.Ranking, []ranking.Ranking) {
	t.Helper()
	cfg := dataset.NYTLike(400, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.Workload(rs, cfg, 10, 0.8, cfg.Seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	sh := newIndex(t, rs, "inverted-drop", 0)
	return newServer(sh, "inverted-drop"), rs, qs
}

func postSearch(t *testing.T, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestSearchSingle(t *testing.T) {
	srv, rs, qs := testServer(t)
	h := srv.routes()
	ref, err := topk.NewCoarseIndex(rs, topk.WithThetaC(0.3))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		rec := postSearch(t, h, map[string]any{"query": q, "theta": 0.2})
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Search(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != len(want) || len(resp.Results) != len(want) {
			t.Fatalf("count %d, want %d", resp.Count, len(want))
		}
		for i, r := range resp.Results {
			if r.ID != want[i].ID || r.Dist != want[i].Dist {
				t.Fatalf("result %d: got (%d,%d), want (%d,%d)", i, r.ID, r.Dist, want[i].ID, want[i].Dist)
			}
		}
	}
}

func TestSearchBatch(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	rec := postSearch(t, h, map[string]any{"queries": qs, "theta": 0.2})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != len(qs) {
		t.Fatalf("answers %d, want %d", len(resp.Answers), len(qs))
	}
	// Batch answers must match the corresponding single-query answers.
	for i, q := range qs {
		single := postSearch(t, h, map[string]any{"query": q, "theta": 0.2})
		var sresp searchResponse
		if err := json.Unmarshal(single.Body.Bytes(), &sresp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Answers[i].Results, sresp.Results) &&
			!(len(resp.Answers[i].Results) == 0 && len(sresp.Results) == 0) {
			t.Fatalf("query %d: batch answer diverges from single answer", i)
		}
	}
}

func TestSearchRejectsBadInput(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	cases := []map[string]any{
		{"theta": 0.2}, // neither query nor queries
		{"query": qs[0], "queries": qs, "theta": 0.2},                   // both
		{"query": qs[0], "theta": 1.5},                                  // theta out of range
		{"query": []uint32{1, 2}, "theta": 0.2},                         // wrong k
		{"query": []uint32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, "theta": 0.2}, // duplicate items
		{"queries": []any{}, "theta": 0.2},                              // empty batch
		{"queries": []any{}, "thetas": []float64{}},                     // empty batch with thetas
	}
	for i, c := range cases {
		if rec := postSearch(t, h, c); rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400 (%s)", i, rec.Code, rec.Body)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	postSearch(t, h, map[string]any{"queries": qs, "theta": 0.2})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.N != 400 || st.K != 10 || st.Index != "inverted-drop" {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Queries != uint64(len(qs)) {
		t.Fatalf("queries %d, want %d", st.Queries, len(qs))
	}
	if st.DistanceCalls == 0 {
		t.Fatal("no distance calls recorded")
	}
	if st.Batches != 1 || st.Tombstones != 0 {
		t.Fatalf("batches %d, tombstones %d; want 1 and 0", st.Batches, st.Tombstones)
	}
	for _, key := range []string{`"numShards"`, `"shards"`, `"fanout"`, `"merge"`} {
		if strings.Contains(rec.Body.String(), key) {
			t.Errorf("/stats still carries %s: a collection is one index", key)
		}
	}
}

func post(t *testing.T, h http.Handler, path string, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func liveN(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.N
}

// TestMutationEndpoints drives the full lifecycle over HTTP: insert a
// ranking, find it, update it, find the new version under the same id,
// delete it, 404 on further mutations of the retired id — with /stats
// tracking the live count throughout.
func TestMutationEndpoints(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.routes()
	if n := liveN(t, h); n != 400 {
		t.Fatalf("initial live count %d, want 400", n)
	}

	rec := post(t, h, "/insert", `{"ranking":[901,902,903,904,905,906,907,908,909,910]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	var ins mutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != 400 || ins.N != 401 {
		t.Fatalf("insert returned id=%d n=%d, want id=400 n=401", ins.ID, ins.N)
	}

	// The inserted ranking is findable at distance 0.
	rec = postSearch(t, h, map[string]any{"query": []uint32{901, 902, 903, 904, 905, 906, 907, 908, 909, 910}, "theta": 0.0})
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Results[0].ID != 400 || resp.Results[0].Dist != 0 {
		t.Fatalf("inserted ranking not found: %+v", resp)
	}

	// Update keeps the id; the old version disappears, the new one appears.
	rec = post(t, h, "/update", `{"id":400,"ranking":[911,912,913,914,915,916,917,918,919,920]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update status %d: %s", rec.Code, rec.Body)
	}
	rec = postSearch(t, h, map[string]any{"query": []uint32{911, 912, 913, 914, 915, 916, 917, 918, 919, 920}, "theta": 0.0})
	resp = searchResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Results[0].ID != 400 {
		t.Fatalf("updated ranking not found under stable id: %+v", resp)
	}
	rec = postSearch(t, h, map[string]any{"query": []uint32{901, 902, 903, 904, 905, 906, 907, 908, 909, 910}, "theta": 0.0})
	resp = searchResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 {
		t.Fatalf("stale version still findable after update: %+v", resp)
	}

	if rec = post(t, h, "/delete", `{"id":400}`); rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body)
	}
	if n := liveN(t, h); n != 400 {
		t.Fatalf("live count %d after insert+delete, want 400", n)
	}
	// The id is retired for good.
	if rec = post(t, h, "/delete", `{"id":400}`); rec.Code != http.StatusNotFound {
		t.Fatalf("re-delete status %d, want 404 (%s)", rec.Code, rec.Body)
	}
	if rec = post(t, h, "/update", `{"id":400,"ranking":[1,2,3,4,5,6,7,8,9,10]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("update of retired id status %d, want 404 (%s)", rec.Code, rec.Body)
	}
}

// TestMutationEndpointValidation is the table-driven 400/404-never-500
// contract of the mutation endpoints.
func TestMutationEndpointValidation(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.routes()
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"insert malformed body", "/insert", `{"ranking":`, http.StatusBadRequest},
		{"insert unknown field", "/insert", `{"rnking":[1,2]}`, http.StatusBadRequest},
		{"insert missing ranking", "/insert", `{}`, http.StatusBadRequest},
		{"insert wrong k", "/insert", `{"ranking":[1,2,3]}`, http.StatusBadRequest},
		{"insert duplicate items", "/insert", `{"ranking":[1,1,2,3,4,5,6,7,8,9]}`, http.StatusBadRequest},
		{"insert with id", "/insert", `{"id":3,"ranking":[11,12,13,14,15,16,17,18,19,20]}`, http.StatusBadRequest},
		{"delete malformed body", "/delete", `nope`, http.StatusBadRequest},
		{"delete missing id", "/delete", `{}`, http.StatusBadRequest},
		{"delete with ranking", "/delete", `{"id":1,"ranking":[1,2,3,4,5,6,7,8,9,10]}`, http.StatusBadRequest},
		{"delete unknown id", "/delete", `{"id":999999}`, http.StatusNotFound},
		{"update malformed body", "/update", `{"id":}`, http.StatusBadRequest},
		{"update missing id", "/update", `{"ranking":[11,12,13,14,15,16,17,18,19,20]}`, http.StatusBadRequest},
		{"update missing ranking", "/update", `{"id":1}`, http.StatusBadRequest},
		{"update wrong k", "/update", `{"id":1,"ranking":[1,2]}`, http.StatusBadRequest},
		{"update duplicate items", "/update", `{"id":1,"ranking":[1,1,2,3,4,5,6,7,8,9]}`, http.StatusBadRequest},
		{"update unknown id", "/update", `{"id":999999,"ranking":[11,12,13,14,15,16,17,18,19,20]}`, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := post(t, h, c.path, c.body)
			if rec.Code != c.want {
				t.Fatalf("status %d, want %d (%s)", rec.Code, c.want, rec.Body)
			}
			if rec.Code >= 500 {
				t.Fatalf("mutation endpoint returned 5xx: %s", rec.Body)
			}
		})
	}
	if n := liveN(t, h); n != 400 {
		t.Fatalf("rejected mutations changed the live count: %d", n)
	}
}

// TestMaxBodyLimit pins the unified -max-body contract: every endpoint
// shares one limit and oversized bodies get 413, not 400.
func TestMaxBodyLimit(t *testing.T) {
	srv, _, qs := testServer(t)
	srv.maxBody = 256
	h := srv.routes()
	// Leading whitespace counts toward the limit and is consumed before any
	// field parses, so one oversized body exercises every endpoint alike.
	big := strings.Repeat(" ", 400) + `{"id":1}`
	// The body is read whole before it is parsed, so an oversized body is a
	// 413 even when its first bytes are already malformed (a streaming
	// decode would have answered 400 before reaching the limit).
	bad := "x" + strings.Repeat(" ", 400)
	for _, path := range []string{"/search", "/knn", "/insert", "/delete", "/update"} {
		for _, body := range []string{big, bad} {
			rec := post(t, h, path, body)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s with oversized body %.8q: status %d, want 413 (%s)", path, body, rec.Code, rec.Body)
			}
		}
	}
	// Within the limit the endpoints still answer normally.
	if rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.1}); rec.Code != http.StatusOK {
		t.Fatalf("small body rejected: %d %s", rec.Code, rec.Body)
	}
}

// TestValidateKindFlags pins the fail-fast contract of -kind: a kind outside
// the served inverted family is a usage error out of New — before anything
// listens or builds. No other flag depends on the kind: every served kind
// takes -delta-ratio and -calibrate.
func TestValidateKindFlags(t *testing.T) {
	for _, c := range []struct {
		kind string
		ok   bool
	}{
		{"hybrid", true},
		{"", true},
		{"inverted-drop", true},
		{"merge", true},
		{"inverted", true},
		{"coarse", false},
		{"blocked-drop", false},
		{"bktree", false},
	} {
		_, err := New(Config{Kind: c.kind, DeltaRatio: 0.1, MaxConcurrency: -1, Log: io.Discard})
		if (err == nil) != c.ok {
			t.Fatalf("New(-kind %q -delta-ratio 0.1) = %v, want ok=%v", c.kind, err, c.ok)
		}
	}
}

// TestDeltaRatioActsOnEveryKind: -delta-ratio, and deltaRatio in a create
// request, set the compaction ratio of every served kind. At 0.1 over 100
// rankings, ten deletes leave a collection uncompacted and the
// eleventh compacts it — on the flag-defined default collection and on one
// created over HTTP alike.
func TestDeltaRatioActsOnEveryKind(t *testing.T) {
	for _, kind := range []string{"hybrid", "inverted", "inverted-drop", "merge"} {
		t.Run(kind, func(t *testing.T) {
			s, err := New(Config{Kind: kind, DeltaRatio: 0.1, WALRoot: t.TempDir(), MaxConcurrency: -1, Log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.bootstrap(); err != nil {
				t.Fatal(err)
			}
			s.ready.Store(true)
			t.Cleanup(func() { s.closeCollections() })
			h := s.Handler()
			if rec := doJSON(t, h, http.MethodPut, "/collections/x", map[string]any{"kind": kind, "shards": 1, "deltaRatio": 0.1}); rec.Code != http.StatusCreated {
				t.Fatalf("create with deltaRatio: %d %s", rec.Code, rec.Body)
			}
			for _, name := range []string{DefaultCollectionName, "x"} {
				for i := 0; i < 100; i++ {
					if rec := post(t, h, "/c/"+name+"/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(6, 6*i))); rec.Code != http.StatusOK {
						t.Fatalf("%s insert: %d %s", name, rec.Code, rec.Body)
					}
				}
				for id := 0; id < 11; id++ {
					if rec := post(t, h, "/c/"+name+"/delete", fmt.Sprintf(`{"id":%d}`, id)); rec.Code != http.StatusOK {
						t.Fatalf("%s delete(%d): %d %s", name, id, rec.Code, rec.Body)
					}
					var st statsResponse
					if err := json.Unmarshal(get(t, h, "/c/"+name+"/stats").Body.Bytes(), &st); err != nil {
						t.Fatal(err)
					}
					if want := uint64(id / 10); st.Rebuilds != want {
						t.Fatalf("%s: %d deletes of 100 at ratio 0.1 ran %d compactions, want %d", name, id+1, st.Rebuilds, want)
					}
				}
			}
		})
	}
}

// TestBuilderForServesMutableKinds walks every kind name topkquery and
// topkserve know: openCollection builds the one index of a collection of each
// served kind over the slots, and rejects every other kind — the paper
// baselines of kinds.Table.
func TestBuilderForServesMutableKinds(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(60, 10))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"hybrid"}
	for _, k := range kinds.Table {
		names = append(names, k.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s := newServer(nil, "hybrid")
			c, err := s.openCollection("x", CollectionOptions{Kind: name}, "", func() (seedRows, error) { return seedRows{slots: rs}, nil })
			if validateKind(name) != nil {
				if err == nil {
					t.Fatalf("openCollection built a collection of kind %q, which the server does not serve", name)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.idx.Len() != len(rs) || len(c.idx.Slots()) != len(rs) {
				t.Fatalf("built index holds %d rankings in %d slots, want %d", c.idx.Len(), len(c.idx.Slots()), len(rs))
			}
		})
	}
}

// TestSnapshotEndpointRoundTrip mutates a server, pulls GET /snapshot, and
// restarts from the bytes with -load-snapshot: every id and tombstone must be
// preserved and the restored server must answer identically.
func TestSnapshotEndpointRoundTrip(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	if rec := post(t, h, "/delete", `{"id":42}`); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/insert", `{"ranking":[901,902,903,904,905,906,907,908,909,910]}`); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d", rec.Code)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, `"rankings.v3"`) {
		t.Fatalf("Content-Disposition %q does not name rankings.v3", cd)
	}
	pc, err := persist.ReadPagedAll(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("snapshot bytes unreadable: %v", err)
	}
	if slots := pc.Slots(); len(slots) != 401 || slots[42] != nil || slots[400] == nil {
		t.Fatalf("snapshot slots wrong: len=%d slot42=%v", len(slots), slots[42])
	}

	path := filepath.Join(t.TempDir(), "snap.v3")
	if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h2 := startServer(t, "inverted-drop", path, "").routes()
	if n := liveN(t, h2); n != 400 {
		t.Fatalf("restored live count %d, want 400", n)
	}
	if rec := post(t, h2, "/delete", `{"id":42}`); rec.Code != http.StatusNotFound {
		t.Fatalf("retired id revived on reload: %d", rec.Code)
	}
	for _, q := range qs[:4] {
		a := postSearch(t, h, map[string]any{"query": q, "theta": 0.2})
		b := postSearch(t, h2, map[string]any{"query": q, "theta": 0.2})
		var ra, rb searchResponse
		if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Results, rb.Results) {
			t.Fatalf("restored server diverges:\n got %v\nwant %v", rb.Results, ra.Results)
		}
	}
}

// TestLoadSnapshotKeepsTombstones starts from a tombstoned snapshot file and
// verifies retired ids — a trailing one included — stay retired on the
// serving path.
func TestLoadSnapshotKeepsTombstones(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(60, 10))
	if err != nil {
		t.Fatal(err)
	}
	slots := append(append([]ranking.Ranking(nil), rs...), nil)
	slots[7], slots[23] = nil, nil // tombstones, plus the trailing slot 60
	path := filepath.Join(t.TempDir(), "tombstoned.v3")
	if err := persist.WritePagedFile(path, slots); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, "inverted-drop", path, "")
	if got := srv.defColl().idx.Slots(); !slotsEqual(got, slots) {
		t.Fatal("served slot view diverges from the snapshot")
	}
	h := srv.routes()
	if n := liveN(t, h); n != 58 {
		t.Fatalf("live count %d, want 58", n)
	}
	for _, id := range []int{7, 60} {
		if rec := post(t, h, "/delete", fmt.Sprintf(`{"id":%d}`, id)); rec.Code != http.StatusNotFound {
			t.Fatalf("delete of tombstoned id %d: status %d, want 404", id, rec.Code)
		}
	}
	// The next insert continues the id sequence after the snapshot's slots.
	rec := post(t, h, "/insert", `{"ranking":[901,902,903,904,905,906,907,908,909,910]}`)
	var ins mutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != 61 {
		t.Fatalf("insert after load returned id %d, want 61", ins.ID)
	}
}

func TestLoadCollectionSnapshot(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rankings.v3")
	if err := persist.WritePagedFile(path, rs); err != nil {
		t.Fatal(err)
	}
	got, err := loadSeed("", path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.pc.Slots(), rs) {
		t.Fatal("snapshot round-trip diverges")
	}
	if _, err := loadSeed("x", path); err == nil {
		t.Fatal("expected error for both -data and -load-snapshot")
	}
	if _, err := loadSeed("", ""); !errors.Is(err, errNoSource) {
		t.Fatalf("no source: %v, want errNoSource", err)
	}
}

// legacyV2 is a two-slot "TKRK" version 2 snapshot: [1 2], then a tombstone.
var legacyV2 = []byte{'K', 'R', 'K', 'T', 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0}

// TestLoadSnapshotRejectsLegacy: a v1/v2 file given to -load-snapshot is a
// typed startup error naming the file and the migration command — the server
// no longer decodes it.
func TestLoadSnapshotRejectsLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.bin")
	if err := os.WriteFile(path, legacyV2, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Kind: "hybrid", SnapshotPath: path, MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	err = s.bootstrap()
	if !errors.Is(err, persist.ErrLegacyFormat) {
		t.Fatalf("bootstrap on a TKRK snapshot: %v, want ErrLegacyFormat", err)
	}
	for _, want := range []string{path, "topkquery -load-snapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestLegacyBinCheckpointFailsRun: a monolithic checkpoint-<seq>.bin in the
// -wal directory makes Run fail before ready — naming the file and the
// migration command — without replaying a single record of the intact
// segments beside it. Skipping the file instead would replay a truncated log
// over the wrong base.
func TestLegacyBinCheckpointFailsRun(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	s1 := startServer(t, "hybrid", emptySnapshot(t, dir), walDir)
	for i := 0; i < 3; i++ {
		if rec := post(t, s1.routes(), "/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(4, 10*i))); rec.Code != http.StatusOK {
			t.Fatalf("insert: %d %s", rec.Code, rec.Body)
		}
	}
	stopWALServer(t, s1)
	bin := filepath.Join(walDir, "checkpoint-0000000000000001.bin")
	if err := os.WriteFile(bin, legacyV2, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	s2, err := New(Config{Addr: "127.0.0.1:0", Kind: "hybrid", WALDir: walDir, MaxConcurrency: -1, Log: &logged})
	if err != nil {
		t.Fatal(err)
	}
	err = s2.Run(context.Background())
	if !errors.Is(err, wal.ErrLegacyCheckpoint) {
		t.Fatalf("Run over a .bin checkpoint: %v, want ErrLegacyCheckpoint", err)
	}
	for _, want := range []string{bin, "topkquery -load-snapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if s2.ready.Load() || s2.defColl() != nil {
		t.Fatal("server went ready / published a collection over a legacy checkpoint")
	}
	if strings.Contains(logged.String(), "replayed") || strings.Contains(logged.String(), "indexed") {
		t.Fatalf("bring-up got past the legacy checkpoint:\n%s", logged.String())
	}
}
