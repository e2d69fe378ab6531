package server

import (
	"io"
	"testing"

	"topk"
	"topk/internal/invindex"
	"topk/internal/ranking"
)

// newServer builds a ready single-collection server around idx — the shape
// the pre-registry tests were written against. Admission control and the
// query cache are off; tests that need them install their own.
func newServer(idx *invindex.Mutable, kind string) *Server {
	s, err := New(Config{Kind: kind, MaxConcurrency: -1, Log: io.Discard})
	if err != nil {
		panic(err)
	}
	if idx != nil {
		s.install(idx)
	}
	return s
}

// newIndex builds the index a collection of the served kind holds over the
// slots rs, compacting at deltaRatio.
func newIndex(t *testing.T, rs []ranking.Ranking, kind string, deltaRatio float64) *invindex.Mutable {
	t.Helper()
	alg, err := kindAlgorithm(kind)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := invindex.NewMutable(rs, alg, deltaRatio)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// install publishes idx as the in-memory default collection and flips ready —
// for tests that build their own index. Durable collections come up through
// startServer, i.e. through bootstrap like the real thing.
func (s *Server) install(idx *invindex.Mutable) {
	s.publish(s.newCollection(s.cfg.DefaultCollection, CollectionOptions{Kind: s.cfg.Kind}, idx, storage{}))
	s.ready.Store(true)
}

// startServer is topkserve -kind K -load-snapshot S -wal D
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
		Kind: kind, DeltaRatio: topk.DefaultCompactionRatio,
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
