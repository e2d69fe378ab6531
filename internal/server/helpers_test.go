package server

import (
	"io"
	"testing"

	"topk"
	"topk/internal/ranking"
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

// forcedHybrid builds n shards of the library's HybridIndex over rs, each
// pinned to the named backend through Force — the comparison the end-to-end
// harness draws. The server itself never builds a HybridIndex.
func forcedHybrid(t *testing.T, rs []ranking.Ranking, n int, name string) *shard.Sharded {
	t.Helper()
	sh, err := shard.New(rs, n, func(rs []ranking.Ranking) (shard.Index, error) {
		h, err := topk.NewHybridIndexFromSlots(rs)
		if err != nil {
			return nil, err
		}
		return h, h.Force(name)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// install publishes sh as the in-memory default collection and flips ready —
// for tests that build their own index. Durable collections come up through
// startServer, i.e. through bootstrap like the real thing.
func (s *Server) install(sh *shard.Sharded) {
	s.publish(s.newCollection(s.cfg.DefaultCollection, CollectionOptions{Kind: s.cfg.Kind}, sh, storage{}))
	s.ready.Store(true)
}

// startServer is topkserve -kind K -shards 4 -load-snapshot S -wal D
// brought up by the real bootstrap: newest checkpoint in walDir or else the
// snapshot, index build, tracked WAL replay, log open. DeltaRatio and
// WALSyncEvery are spelled out because their Config zero values are not
// the flag defaults.
func startServer(t *testing.T, kind, snapPath, walDir string) *Server {
	t.Helper()
	s, err := bootServer(kind, snapPath, walDir)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	s.ready.Store(true)
	s.defColl().walFatal = func(err error) { t.Fatalf("wal append failed: %v", err) }
	return s
}

// bootServer runs startServer's bootstrap and returns its error instead of
// failing the test.
func bootServer(kind, snapPath, walDir string) (*Server, error) {
	s, err := New(Config{
		Kind: kind, Shards: 4, DeltaRatio: topk.DefaultCompactionRatio,
		SnapshotPath: snapPath, WALDir: walDir, WALSyncEvery: 1,
		MaxConcurrency: -1, Log: io.Discard,
	})
	if err != nil {
		return nil, err
	}
	return s, s.bootstrap()
}

// defColl resolves the default collection the legacy routes alias to.
func (s *Server) defColl() *Collection {
	c, _ := s.lookup(s.cfg.DefaultCollection)
	return c
}
