package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topk/internal/difftest"
	"topk/internal/persist"
	"topk/internal/shard"
	"topk/internal/wal"
)

// emptySnapshot writes a snapshot of an empty collection — the seed for
// tests that want a server starting empty on the single-collection path.
func emptySnapshot(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "empty.v3")
	if err := persist.WritePagedFile(path, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkpointHTTP(t *testing.T, s *Server) checkpointResponse {
	t.Helper()
	rec := doJSON(t, s.routes(), http.MethodPost, "/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	var cp checkpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestRestartCheckpointsIncrementally: a collection seeded from a snapshot
// file checkpoints as a full write, restart recovers from that footer through
// the mmap path with only the replayed slots dirty — so the next checkpoint is
// incremental — and the served collection stays oracle-identical throughout.
func TestRestartCheckpointsIncrementally(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "base.v3")
	// Big enough that the layout spans many pages (one flag page plus a
	// dozen-plus arena pages at the default page size), so an incremental
	// checkpoint has something to reuse.
	cfg := difftest.RandomCollection(rand.New(rand.NewSource(61)), 20000, 10, 400)
	if err := persist.WritePagedFile(snapPath, cfg); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(62))
	o := difftest.NewOracle(cfg)
	s1 := startServer(t, "hybrid", snapPath, walDir, true)
	mutateOverHTTP(t, s1.routes(), o, rng, 60, 400)

	// First checkpoint on a snapshot-seeded collection: the WAL directory
	// holds no footer yet, so it is a full write.
	cp := checkpointHTTP(t, s1)
	if cp.PagesReused != 0 || cp.PagesWritten == 0 {
		t.Fatalf("first checkpoint wrote %d pages, reused %d; want a full write", cp.PagesWritten, cp.PagesReused)
	}
	if _, cpPath, _ := wal.LatestCheckpoint(walDir); cpPath != persist.FooterPath(walDir, cp.Seq) {
		t.Fatalf("checkpoint artifact %q is not the seq-%d footer", cpPath, cp.Seq)
	}
	mutateOverHTTP(t, s1.routes(), o, rng, 40, 400)
	stopWALServer(t, s1)

	// Restart: base is now the paged footer (possibly mapped), plus replay
	// of the post-checkpoint suffix.
	s2 := startServer(t, "hybrid", snapPath, walDir, true)
	c := s2.defColl()
	if c.paged == nil {
		t.Fatal("restart did not recover from the paged checkpoint")
	}
	gotSlots, _ := c.sh.Slots()
	if !slotsEqual(gotSlots, o.Slots()) {
		t.Fatal("paged recovery diverged from the oracle slot-for-slot")
	}
	difftest.CheckSearch(t, "paged-recovery", c.sh, o, rng, 15, 400)

	// A small burst now rewrites only the pages it touches.
	mutateOverHTTP(t, s2.routes(), o, rng, 5, 400)
	cp2 := checkpointHTTP(t, s2)
	if cp2.PagesWritten == 0 || cp2.PagesWritten > 12 {
		t.Fatalf("5-op burst rewrote %d pages; want a handful", cp2.PagesWritten)
	}
	if cp2.PagesReused == 0 {
		t.Fatalf("incremental checkpoint reused no pages (wrote %d)", cp2.PagesWritten)
	}
	if cp2.Bytes != int64(cp2.PagesWritten)*int64(persist.DefaultPageSize) {
		t.Fatalf("bytes=%d does not match %d written pages", cp2.Bytes, cp2.PagesWritten)
	}
	stopWALServer(t, s2)

	// Third generation: recover from the incremental footer.
	s3 := startServer(t, "hybrid", snapPath, walDir, true)
	gotSlots, _ = s3.defColl().sh.Slots()
	if !slotsEqual(gotSlots, o.Slots()) {
		t.Fatal("recovery from the incremental checkpoint diverged from the oracle")
	}
	stopWALServer(t, s3)
}

// copyDir clones a WAL directory so two recovery paths can run over the
// same history.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMmapRecoveryMatchesReplayDifferential is the byte-identity acceptance
// criterion: after a 1k-op history, a server recovered through the mmapped
// v3 checkpoint must serve exactly what the other recovery paths serve.
// Against a restart from a GET /snapshot-style single file (read whole,
// same full-base build) results AND DistanceCalls must match exactly;
// against a pure WAL replay restart —
// whose index carries the history as a delta overlay, so its scan costs
// legitimately differ — the slot array and every result must still match.
func TestMmapRecoveryMatchesReplayDifferential(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	rng := rand.New(rand.NewSource(63))
	cfg := difftest.RandomCollection(rng, 200, 10, 150)
	o := difftest.NewOracle(cfg)
	seed := emptySnapshot(t, dir)

	s1 := startServer(t, "inverted", seed, walDir, true)
	for id, r := range cfg { // seed through the handlers so the WAL has it all
		rec := doJSON(t, s1.routes(), http.MethodPost, "/insert", map[string]any{"ranking": r})
		if rec.Code != http.StatusOK {
			t.Fatalf("seed insert %d: %d %s", id, rec.Code, rec.Body)
		}
	}
	mutateOverHTTP(t, s1.routes(), o, rng, 1000, 150)
	stopWALServer(t, s1)

	// Clone the history BEFORE any checkpoint exists: the clone recovers by
	// replay alone, the original through the paged checkpoint.
	replayDir := filepath.Join(dir, "wal-replay")
	copyDir(t, walDir, replayDir)

	// From one recovered server, cut the same state both ways: a single-file
	// snapshot and an incremental checkpoint in the WAL directory.
	s2 := startServer(t, "inverted", seed, walDir, true)
	snapPath := filepath.Join(dir, "state.v3")
	slots2, ok := s2.defColl().sh.Slots()
	if !ok {
		t.Fatal("no slot view")
	}
	if err := persist.WritePagedFile(snapPath, slots2); err != nil {
		t.Fatal(err)
	}
	checkpointHTTP(t, s2)
	stopWALServer(t, s2)

	mm := startServer(t, "inverted", seed, walDir, true)
	if mm.defColl().paged == nil {
		t.Fatal("checkpointed directory did not recover through the paged path")
	}
	snapSrv := startServer(t, "inverted", snapPath, filepath.Join(dir, "wal-snap"), true)
	rp := startServer(t, "inverted", seed, replayDir, true)
	if rp.defColl().paged != nil {
		t.Fatal("replay clone unexpectedly found a checkpoint")
	}
	if rp.defColl().walReplayed == 0 {
		t.Fatal("replay clone replayed nothing")
	}

	mmSlots, _ := mm.defColl().sh.Slots()
	snapSlots, _ := snapSrv.defColl().sh.Slots()
	rpSlots, _ := rp.defColl().sh.Slots()
	if !slotsEqual(mmSlots, snapSlots) || !slotsEqual(mmSlots, rpSlots) || !slotsEqual(mmSlots, o.Slots()) {
		t.Fatal("recovery paths disagree on the slot array")
	}

	for i := 0; i < 30; i++ {
		q := difftest.RandomRanking(rng, o.K(), 150)
		theta := []float64{0.05, 0.15, 0.3}[i%3]
		mmBefore, snapBefore := mm.defColl().sh.DistanceCalls(), snapSrv.defColl().sh.DistanceCalls()
		mmRes, err1 := mm.defColl().sh.Search(q, theta)
		snapRes, err2 := snapSrv.defColl().sh.Search(q, theta)
		rpRes, err3 := rp.defColl().sh.Search(q, theta)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("query %d: %v / %v / %v", i, err1, err2, err3)
		}
		if len(mmRes) != len(snapRes) || len(mmRes) != len(rpRes) {
			t.Fatalf("query %d: %d vs %d vs %d results", i, len(mmRes), len(snapRes), len(rpRes))
		}
		for j := range mmRes {
			if mmRes[j] != snapRes[j] || mmRes[j] != rpRes[j] {
				t.Fatalf("query %d result %d: mmap %+v, snapshot %+v, replay %+v", i, j, mmRes[j], snapRes[j], rpRes[j])
			}
		}
		mmCalls := mm.defColl().sh.DistanceCalls() - mmBefore
		snapCalls := snapSrv.defColl().sh.DistanceCalls() - snapBefore
		if mmCalls != snapCalls {
			t.Fatalf("query %d: mmap recovery spent %d distance calls, snapshot restart %d", i, mmCalls, snapCalls)
		}
	}
	stopWALServer(t, mm)
	stopWALServer(t, snapSrv)
	stopWALServer(t, rp)
}

// TestStorageStatsAndMetrics: /stats grows a storage section and /metrics
// the paged-storage families once a collection has a tracker.
func TestStorageStatsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	rng := rand.New(rand.NewSource(64))
	// Page-reuse assertions need a multi-page layout: 20000 slots at k=10 is
	// one flag page plus 13 arena pages.
	cfg := difftest.RandomCollection(rng, 20000, 10, 400)
	o := difftest.NewOracle(cfg)
	snapPath := filepath.Join(dir, "base.v3")
	if err := persist.WritePagedFile(snapPath, cfg); err != nil {
		t.Fatal(err)
	}

	s := startServer(t, "hybrid", snapPath, walDir, true)
	defer stopWALServer(t, s)
	checkpointHTTP(t, s)
	mutateOverHTTP(t, s.routes(), o, rng, 7, 400)

	rec := doJSON(t, s.routes(), http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var st struct {
		Storage *storageStatsJSON `json:"storage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Storage == nil {
		t.Fatalf("stats has no storage section: %s", rec.Body)
	}
	if st.Storage.DirtySlots == 0 || st.Storage.DirtyPages == 0 {
		t.Fatalf("storage stats show no dirt after 7 mutations: %+v", st.Storage)
	}
	if st.Storage.CheckpointPagesWritten == 0 || st.Storage.CheckpointBytesWritten == 0 {
		t.Fatalf("storage stats lost the checkpoint counters: %+v", st.Storage)
	}

	rec = doJSON(t, s.routes(), http.MethodGet, "/metrics", nil)
	body := rec.Body.String()
	for _, family := range []string{
		"topkserve_storage_dirty_slots",
		"topkserve_storage_dirty_pages",
		"topkserve_storage_mapped_bytes",
		"topkserve_storage_checkpoint_pages_total",
		"topkserve_storage_checkpoint_bytes_total",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics lacks %s", family)
		}
	}
	if !strings.Contains(body, `result="written"`) || !strings.Contains(body, `result="reused"`) {
		t.Fatal("/metrics checkpoint counters lack the result label")
	}

	// A second checkpoint drains the dirt and bumps the reuse counters.
	cp := checkpointHTTP(t, s)
	if cp.PagesReused == 0 {
		t.Fatalf("second checkpoint reused nothing: %+v", cp)
	}
	rec = doJSON(t, s.routes(), http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Storage.DirtySlots != 0 {
		t.Fatalf("checkpoint left %d dirty slots behind", st.Storage.DirtySlots)
	}
	if st.Storage.CheckpointPagesReused == 0 {
		t.Fatalf("cumulative reuse counter still zero: %+v", st.Storage)
	}
}

// TestSpillEpochsBringUp: with -spill-epochs a durable collection spills next
// to its WAL — the directory exists before the first epoch builds, so nothing
// falls back — and a WAL directory that cannot be created is a bring-up
// error, not a quiet spill somewhere else.
func TestSpillEpochsBringUp(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "base.v3")
	if err := persist.WritePagedFile(snapPath, difftest.RandomCollection(rand.New(rand.NewSource(65)), 300, 8, 120)); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	cfg := Config{Kind: "hybrid", Shards: 2, SnapshotPath: snapPath, WALDir: filepath.Join(dir, "wal"),
		SpillEpochs: true, Mmap: true, MaxConcurrency: -1, Log: &logged}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.bootstrap(); err != nil {
		t.Fatal(err)
	}
	defer stopWALServer(t, s)
	if st := s.defColl().storageStats(); st.SpillBytes == 0 || st.SpillFallbacks != 0 {
		t.Fatalf("first boot on a fresh WAL directory: %+v", st)
	}
	if strings.Contains(logged.String(), "fell back") {
		t.Fatalf("spurious fallback warning:\n%s", logged.String())
	}

	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.WALDir = filepath.Join(blocker, "wal")
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if err := s.bootstrap(); err == nil {
		t.Fatal("bootstrap succeeded with an uncreatable WAL directory")
	}
}

// TestSpillFallbackIsCountedAndLogged: shards whose spill directory is
// unusable serve from the heap, and the collection says so — summed into the
// /stats storage section and topkserve_storage_spill_fallbacks_total, with
// the first error logged exactly once however often the stats are read.
func TestSpillFallbackIsCountedAndLogged(t *testing.T) {
	rs := difftest.RandomCollection(rand.New(rand.NewSource(66)), 200, 8, 100)
	sh, err := shard.New(rs, 2, builderFor("hybrid", "", 0, filepath.Join(t.TempDir(), "missing")))
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	s, err := New(Config{Kind: "hybrid", MaxConcurrency: -1, Log: &logged})
	if err != nil {
		t.Fatal(err)
	}
	s.publish(s.newCollection(s.cfg.DefaultCollection, CollectionOptions{Kind: "hybrid"}, sh,
		storage{tracker: persist.NewSlotTracker(), pager: persist.NewPager(t.TempDir(), nil, nil)}))
	s.ready.Store(true)

	for i := 0; i < 2; i++ {
		rec := doJSON(t, s.routes(), http.MethodGet, "/stats", nil)
		var st struct {
			Storage *storageStatsJSON `json:"storage"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Storage == nil || st.Storage.SpillFallbacks != 2 || st.Storage.SpillBytes != 0 {
			t.Fatalf("storage section: %+v (%s)", st.Storage, rec.Body)
		}
	}
	body := doJSON(t, s.routes(), http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(body, `topkserve_storage_spill_fallbacks_total{collection="default"} 2`) {
		t.Fatal("/metrics lacks the spill fallback counter")
	}
	if n := strings.Count(logged.String(), "fell back to the heap arena"); n != 1 {
		t.Fatalf("fallback logged %d times, want once:\n%s", n, logged.String())
	}
}
