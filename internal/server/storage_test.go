package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topk/internal/difftest"
	"topk/internal/persist"
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
// file checkpoints as a full write, restart recovers from that footer and
// seeds the pager with it — so the next checkpoint compares against it and
// is incremental — and the served collection stays oracle-identical
// throughout.
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
	s1 := startServer(t, "hybrid", snapPath, walDir)
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

	// Restart: base is now the paged footer, plus replay of the
	// post-checkpoint suffix.
	s2 := startServer(t, "hybrid", snapPath, walDir)
	c := s2.defColl()
	if c.pager.Prev() == nil {
		t.Fatal("restart did not recover from the paged checkpoint")
	}
	gotSlots := c.idx.Slots()
	if !slotsEqual(gotSlots, o.Slots()) {
		t.Fatal("paged recovery diverged from the oracle slot-for-slot")
	}
	difftest.CheckSearch(t, "paged-recovery", c.idx, o, rng, 15, 400)

	// A small burst now rewrites only the pages that differ from the
	// recovered footer's: the replayed suffix's and the burst's.
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
	s3 := startServer(t, "hybrid", snapPath, walDir)
	gotSlots = s3.defColl().idx.Slots()
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

// TestCheckpointRecoveryMatchesReplayDifferential is the byte-identity
// acceptance criterion: after a 1k-op history, a server recovered through
// the v3 checkpoint must serve exactly what the other recovery paths serve.
// Against a restart from a GET /snapshot-style single file (read whole,
// same full-base build) results AND DistanceCalls must match exactly;
// against a pure WAL replay restart — whose index carries the history as
// tombstones and appended slots, so its scan costs legitimately differ —
// the slot array and every result must still match.
func TestCheckpointRecoveryMatchesReplayDifferential(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	rng := rand.New(rand.NewSource(63))
	cfg := difftest.RandomCollection(rng, 200, 10, 150)
	o := difftest.NewOracle(cfg)
	seed := emptySnapshot(t, dir)

	s1 := startServer(t, "inverted-drop", seed, walDir)
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
	s2 := startServer(t, "inverted-drop", seed, walDir)
	snapPath := filepath.Join(dir, "state.v3")
	slots2 := s2.defColl().idx.Slots()
	if err := persist.WritePagedFile(snapPath, slots2); err != nil {
		t.Fatal(err)
	}
	checkpointHTTP(t, s2)
	stopWALServer(t, s2)

	cpSrv := startServer(t, "inverted-drop", seed, walDir)
	if cpSrv.defColl().pager.Prev() == nil {
		t.Fatal("checkpointed directory did not recover through the paged path")
	}
	snapSrv := startServer(t, "inverted-drop", snapPath, filepath.Join(dir, "wal-snap"))
	rp := startServer(t, "inverted-drop", seed, replayDir)
	if rp.defColl().pager.Prev() != nil {
		t.Fatal("replay clone unexpectedly found a checkpoint")
	}
	if rp.defColl().walReplayed == 0 {
		t.Fatal("replay clone replayed nothing")
	}

	cpSlots := cpSrv.defColl().idx.Slots()
	snapSlots := snapSrv.defColl().idx.Slots()
	rpSlots := rp.defColl().idx.Slots()
	if !slotsEqual(cpSlots, snapSlots) || !slotsEqual(cpSlots, rpSlots) || !slotsEqual(cpSlots, o.Slots()) {
		t.Fatal("recovery paths disagree on the slot array")
	}

	for i := 0; i < 30; i++ {
		q := difftest.RandomRanking(rng, o.K(), 150)
		theta := []float64{0.05, 0.15, 0.3}[i%3]
		cpBefore, snapBefore := cpSrv.defColl().idx.DistanceCalls(), snapSrv.defColl().idx.DistanceCalls()
		cpRes, err1 := cpSrv.defColl().idx.Search(q, theta)
		snapRes, err2 := snapSrv.defColl().idx.Search(q, theta)
		rpRes, err3 := rp.defColl().idx.Search(q, theta)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("query %d: %v / %v / %v", i, err1, err2, err3)
		}
		if len(cpRes) != len(snapRes) || len(cpRes) != len(rpRes) {
			t.Fatalf("query %d: %d vs %d vs %d results", i, len(cpRes), len(snapRes), len(rpRes))
		}
		for j := range cpRes {
			if cpRes[j] != snapRes[j] || cpRes[j] != rpRes[j] {
				t.Fatalf("query %d result %d: checkpoint %+v, snapshot %+v, replay %+v", i, j, cpRes[j], snapRes[j], rpRes[j])
			}
		}
		cpCalls := cpSrv.defColl().idx.DistanceCalls() - cpBefore
		snapCalls := snapSrv.defColl().idx.DistanceCalls() - snapBefore
		if cpCalls != snapCalls {
			t.Fatalf("query %d: checkpoint recovery spent %d distance calls, snapshot restart %d", i, cpCalls, snapCalls)
		}
	}
	stopWALServer(t, cpSrv)
	stopWALServer(t, snapSrv)
	stopWALServer(t, rp)
}

// TestCheckpointArenaBitRotFailsBringUp: one flipped byte in an arena page
// of pages.v3 — a ranking that still decodes, just not the one inserted —
// fails recovery with ErrCorrupt naming the page instead of coming up and
// serving it.
func TestCheckpointArenaBitRotFailsBringUp(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "base.v3")
	cfg := difftest.RandomCollection(rand.New(rand.NewSource(66)), 300, 10, 150)
	if err := persist.WritePagedFile(snapPath, cfg); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, "hybrid", snapPath, walDir)
	cp := checkpointHTTP(t, s)
	stopWALServer(t, s)

	ft, err := persist.LoadFooter(persist.FooterPath(walDir, cp.Seq))
	if err != nil {
		t.Fatal(err)
	}
	l := ft.Layout
	lp := l.FlagPages() // the first arena page; slot 0's row opens it
	path := filepath.Join(walDir, persist.DataFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The high byte of slot 0's first item: items stay distinct, so the
	// ranking is well-formed but was never inserted.
	data[int(ft.PageMap[lp])*l.PageSize+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := bootServer("hybrid", snapPath, walDir)
	if err == nil {
		stopWALServer(t, s2)
		t.Fatalf("recovery over a bit-rotted arena page came up; slot 0 is %v, inserted %v",
			s2.defColl().idx.Slots()[0], cfg[0])
	}
	if want := fmt.Sprintf("page %d checksum mismatch", lp); !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want ErrCorrupt with %q", err, want)
	}
}

// TestStorageStatsAndMetrics: /stats grows a storage section and /metrics
// the paged-storage families once a collection is durable. Nothing reports
// pending dirt: a checkpoint finds its changed pages by comparing them.
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

	s := startServer(t, "hybrid", snapPath, walDir)
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
	var raw struct {
		Storage map[string]json.RawMessage `json:"storage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"dirtySlots", "dirtyPages"} {
		if _, ok := raw.Storage[key]; ok {
			t.Fatalf("storage stats still report %q: %s", key, rec.Body)
		}
	}
	if st.Storage.CheckpointPagesWritten == 0 || st.Storage.CheckpointBytesWritten == 0 {
		t.Fatalf("storage stats lost the checkpoint counters: %+v", st.Storage)
	}

	rec = doJSON(t, s.routes(), http.MethodGet, "/metrics", nil)
	body := rec.Body.String()
	for _, family := range []string{
		"topkserve_storage_checkpoint_pages_total",
		"topkserve_storage_checkpoint_bytes_total",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics lacks %s", family)
		}
	}
	// Recovery reads checkpoints onto the heap, and no tracker counts dirt:
	// none of these has anything to report.
	for _, family := range []string{
		"topkserve_storage_mapped_bytes",
		"topkserve_storage_dirty_slots",
		"topkserve_storage_dirty_pages",
	} {
		if strings.Contains(body, family) {
			t.Fatalf("/metrics still exports %s", family)
		}
	}
	if !strings.Contains(body, `result="written"`) || !strings.Contains(body, `result="reused"`) {
		t.Fatal("/metrics checkpoint counters lack the result label")
	}

	// A second checkpoint bumps the reuse counters.
	cp := checkpointHTTP(t, s)
	if cp.PagesReused == 0 {
		t.Fatalf("second checkpoint reused nothing: %+v", cp)
	}
	rec = doJSON(t, s.routes(), http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Storage.CheckpointPagesReused == 0 {
		t.Fatalf("cumulative reuse counter still zero: %+v", st.Storage)
	}
}

// TestUncreatableWALDirFailsBringUp: a WAL directory that cannot be created
// is a bring-up error, not a collection that quietly comes up in memory.
func TestUncreatableWALDirFailsBringUp(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "base.v3")
	if err := persist.WritePagedFile(snapPath, difftest.RandomCollection(rand.New(rand.NewSource(65)), 300, 8, 120)); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Kind: "hybrid", SnapshotPath: snapPath, WALDir: filepath.Join(blocker, "wal"),
		MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.bootstrap(); err == nil {
		t.Fatal("bootstrap succeeded with an uncreatable WAL directory")
	}
}
