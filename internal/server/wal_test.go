package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/difftest"
	"topk/internal/persist"
	"topk/internal/ranking"
	"topk/internal/wal"
)

func stopWALServer(t *testing.T, s *Server) {
	t.Helper()
	if err := s.defColl().wal.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// mutateOverHTTP drives ops random mutations through the real handlers,
// mirroring them into the oracle.
func mutateOverHTTP(t *testing.T, h http.Handler, o *difftest.Oracle, rng *rand.Rand, ops, domain int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		switch c := rng.Intn(4); {
		case c < 2:
			r := difftest.RandomRanking(rng, o.K(), domain)
			rec := doJSON(t, h, http.MethodPost, "/insert", map[string]any{"ranking": r})
			if rec.Code != http.StatusOK {
				t.Fatalf("insert: %d %s", rec.Code, rec.Body)
			}
			var resp mutateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if want := o.Insert(r); resp.ID != want {
				t.Fatalf("insert id %d, oracle %d", resp.ID, want)
			}
		case c == 2:
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			rec := doJSON(t, h, http.MethodPost, "/delete", map[string]any{"id": id})
			if rec.Code != http.StatusOK {
				t.Fatalf("delete: %d %s", rec.Code, rec.Body)
			}
			o.Delete(id)
		default:
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			r := difftest.Perturb(rng, o.Slots()[id], domain)
			rec := doJSON(t, h, http.MethodPost, "/update", map[string]any{"id": id, "ranking": r})
			if rec.Code != http.StatusOK {
				t.Fatalf("update: %d %s", rec.Code, rec.Body)
			}
			o.Update(id, r)
		}
	}
}

// TestWALRecoveryAcrossRestart is the end-to-end durability property: a
// server restarted on the same WAL directory — with and without an
// intervening checkpoint — serves exactly the collection every acked
// mutation built, for the sharded hybrid kind.
func TestWALRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "base.v3")

	cfg := difftest.RandomCollection(rand.New(rand.NewSource(1)), 300, 10, 120)
	if err := persist.WritePagedFile(snapPath, cfg); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2))
	o := difftest.NewOracle(cfg)
	domain := difftest.DomainOf(cfg)

	// Run 1: mutate, then "crash" (close without checkpoint).
	s1 := startServer(t, "hybrid", snapPath, walDir, true)
	mutateOverHTTP(t, s1.routes(), o, rng, 120, domain)
	stopWALServer(t, s1)

	// Run 2: recovery must replay all 1st-run records.
	s2 := startServer(t, "hybrid", snapPath, walDir, true)
	if s2.defColl().walReplayed == 0 {
		t.Fatal("restart replayed no records")
	}
	difftest.CheckSearch(t, "post-restart", s2.defColl().sh, o, rng, 15, domain)
	gotSlots, _ := s2.defColl().sh.Slots()
	if !slotsEqual(gotSlots, o.Slots()) {
		t.Fatal("recovered slot view is not byte-identical to the oracle")
	}
	// /stats must expose the WAL section.
	rec := doJSON(t, s2.routes(), http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "\"wal\"") {
		t.Fatalf("stats without wal section: %d %s", rec.Code, rec.Body)
	}

	// Checkpoint, mutate more, crash again.
	rec = doJSON(t, s2.routes(), http.MethodPost, "/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	var cp checkpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Live != o.Len() || cp.Slots != o.NumSlots() {
		t.Fatalf("checkpoint reports live=%d slots=%d, oracle has %d/%d", cp.Live, cp.Slots, o.Len(), o.NumSlots())
	}
	if _, cpPath, _ := wal.LatestCheckpoint(walDir); cpPath == "" {
		t.Fatal("no checkpoint file on disk")
	}
	mutateOverHTTP(t, s2.routes(), o, rng, 80, domain)
	stopWALServer(t, s2)

	// Run 3: base comes from the checkpoint now; only post-checkpoint
	// records replay.
	s3 := startServer(t, "hybrid", snapPath, walDir, true)
	difftest.CheckSearch(t, "post-checkpoint-restart", s3.defColl().sh, o, rng, 15, domain)
	gotSlots, _ = s3.defColl().sh.Slots()
	if !slotsEqual(gotSlots, o.Slots()) {
		t.Fatal("post-checkpoint recovery diverged from the oracle")
	}
	stopWALServer(t, s3)
}

// TestWALRecoveryTornTail hard-stops the log mid-record: the torn suffix
// must be discarded and recovery must land on the longest acked prefix.
func TestWALRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "base.v3")
	cfg := difftest.RandomCollection(rand.New(rand.NewSource(3)), 150, 8, 80)
	if err := persist.WritePagedFile(snapPath, cfg); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	o := difftest.NewOracle(cfg)
	s1 := startServer(t, "inverted", snapPath, walDir, true)
	mutateOverHTTP(t, s1.routes(), o, rng, 60, 80)
	appended := int(s1.defColl().wal.Stats().Appended)
	stopWALServer(t, s1)

	// Tear the tail of the only segment mid-record.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut past the 15-byte seal frame (appended by the orderly close above —
	// a real crash would have left no seal) into the final record.
	if err := os.WriteFile(seg, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, "inverted", snapPath, walDir, true)
	// Every record is at least 15 bytes, so removing 5 bytes tears exactly
	// the final one: recovery keeps the longest acked prefix.
	if got, want := s2.defColl().walReplayed, appended-1; got != want {
		t.Fatalf("replayed %d records, want %d (one torn)", got, want)
	}
	stopWALServer(t, s2)
}

func slotsEqual(a, b []ranking.Ranking) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestCheckpointWithoutWAL pins the 400 contract.
func TestCheckpointWithoutWAL(t *testing.T) {
	srv, _, _ := testServer(t)
	rec := doJSON(t, srv.routes(), http.MethodPost, "/checkpoint", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("checkpoint without -wal: %d %s", rec.Code, rec.Body)
	}
}

// TestShutdownDrainsInflightSearch pins the graceful-shutdown contract:
// a /search in flight when the shutdown signal arrives completes with 200,
// and serveUntilShutdown does not return before its response is written.
func TestShutdownDrainsInflightSearch(t *testing.T) {
	srv, _, qs := testServer(t)
	inner := srv.routes()
	entered := make(chan struct{})
	var once sync.Once
	var handlerDone atomic.Bool
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		time.Sleep(300 * time.Millisecond) // hold the request across the shutdown signal
		inner.ServeHTTP(w, r)
		handlerDone.Store(true)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: slow}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.serveUntilShutdown(ctx, hs, ln, 5*time.Second) }()

	url := fmt.Sprintf("http://%s/search", ln.Addr())
	body, _ := json.Marshal(map[string]any{"query": qs[0], "theta": 0.2})
	respDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			respDone <- err
			return
		}
		defer resp.Body.Close()
		io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			respDone <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		respDone <- nil
	}()

	<-entered // the request is in the handler; now signal shutdown
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serveUntilShutdown: %v", err)
		}
		// Shutdown only returns once active connections go idle, so the
		// in-flight handler must have finished before Serve came back.
		if !handlerDone.Load() {
			t.Fatal("serveUntilShutdown returned while the in-flight request was still in its handler")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never completed")
	}
	if rerr := <-respDone; rerr != nil {
		t.Fatalf("in-flight search failed across shutdown: %v", rerr)
	}
}
