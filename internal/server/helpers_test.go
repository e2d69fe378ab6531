package server

import (
	"io"
	"testing"

	"topk/internal/shard"
)

// newServer builds a ready single-collection server around sh — the shape
// the pre-registry tests were written against. Admission control and the
// query cache are off; tests that need them install their own.
func newServer(sh *shard.Sharded, kind string) *Server {
	s, err := New(Config{Kind: kind, MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		panic(err)
	}
	if sh != nil {
		s.install(sh)
	}
	return s
}

// install publishes sh as the in-memory default collection and flips ready —
// for tests that build their own index. Durable collections come up through
// startServer, i.e. through bootstrap like the real thing.
func (s *Server) install(sh *shard.Sharded) {
	s.publish(s.newCollection(s.cfg.DefaultCollection, CollectionOptions{Kind: s.cfg.Kind}, sh, storage{}))
	s.ready.Store(true)
}

// startServer is topkserve -kind K -shards 4 -load-snapshot S -wal D
// [-mmap=M] brought up by the real bootstrap: newest checkpoint in walDir or
// else the snapshot, index build, tracked WAL replay, log open.
func startServer(t *testing.T, kind, snapPath, walDir string, useMmap bool) *Server {
	t.Helper()
	s, err := New(Config{
		Kind: kind, Shards: 4, DeltaRatio: 0.25,
		SnapshotPath: snapPath, WALDir: walDir, WALSyncEvery: 1, Mmap: useMmap,
		MaxConcurrency: -1, Log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	s.ready.Store(true)
	s.defColl().walFatal = func(err error) { t.Fatalf("wal append failed: %v", err) }
	return s
}

// defColl resolves the default collection the legacy routes alias to.
func (s *Server) defColl() *Collection {
	c, _ := s.lookup(s.cfg.DefaultCollection)
	return c
}
