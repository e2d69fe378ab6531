package shard_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/dataset"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// fakeState is shared by every fake shard of one Sharded under test: the
// searches counter proves how much shard work was actually scheduled, and
// block (when non-nil) holds every started search until the test releases it.
type fakeState struct {
	searches atomic.Uint64
	block    chan struct{}
	// searchErr, when non-nil, is returned by every search — the sub-index
	// failure path of the batch short-circuit.
	searchErr error
}

// fakeIndex counts work instead of doing it: the serving contract
// (shard.Index) and nothing else, so one fake covers every Sharded query path.
type fakeIndex struct {
	st *fakeState
	n  int
	k  int
}

func (f *fakeIndex) SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, string, uint64, error) {
	f.st.searches.Add(1)
	if f.st.block != nil {
		<-f.st.block
	}
	return nil, "fake", 0, f.st.searchErr
}

func (f *fakeIndex) NearestNeighborsTraced(q ranking.Ranking, n int) ([]ranking.Result, string, uint64, error) {
	return f.SearchTraced(q, 0)
}

func (f *fakeIndex) Len() int              { return f.n }
func (f *fakeIndex) K() int                { return f.k }
func (f *fakeIndex) DistanceCalls() uint64 { return f.st.searches.Load() }

// fakeSharded builds a Sharded over counting fakes.
func fakeSharded(t *testing.T, numShards int, st *fakeState) (*shard.Sharded, []ranking.Ranking) {
	t.Helper()
	rs, err := dataset.Generate(dataset.NYTLike(8*numShards, 10))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(rs, numShards, func(chunk []ranking.Ranking) (shard.Index, error) {
		return &fakeIndex{st: st, n: len(chunk), k: 10}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh, rs
}

// TestPreCanceledContextDoesNoShardWork is the strongest form of the
// cancellation contract: a request whose context is already dead must not
// schedule a single sub-index search on any query path.
func TestPreCanceledContextDoesNoShardWork(t *testing.T) {
	st := &fakeState{}
	sh, rs := fakeSharded(t, 4, st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := rs[0]

	if _, err := sh.SearchContext(ctx, q, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext error = %v, want context.Canceled", err)
	}
	if _, err := sh.SearchBatchContext(ctx, rs[:4], 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchContext error = %v, want context.Canceled", err)
	}
	if _, _, err := sh.SearchBatchThetasContext(ctx, rs[:2], []float64{0.1, 0.2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchThetasContext error = %v, want context.Canceled", err)
	}
	if _, _, err := sh.SearchTracedContext(ctx, q, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchTracedContext error = %v, want context.Canceled", err)
	}
	if _, err := sh.NearestNeighborsContext(ctx, q, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("NearestNeighborsContext error = %v, want context.Canceled", err)
	}
	if got := st.searches.Load(); got != 0 {
		t.Fatalf("pre-canceled requests scheduled %d sub-index searches, want 0", got)
	}
}

// TestExpiredDeadlineSurfacesAsDeadlineExceeded pins the error identity the
// HTTP layer maps to 504.
func TestExpiredDeadlineSurfacesAsDeadlineExceeded(t *testing.T) {
	st := &fakeState{}
	sh, rs := fakeSharded(t, 2, st)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sh.SearchContext(ctx, rs[0], 0.2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if got := st.searches.Load(); got != 0 {
		t.Fatalf("expired request scheduled %d searches, want 0", got)
	}
}

// TestBatchCancelStopsRemainingQueries cancels a batch while its first
// queries are still blocked inside the sub-indices and proves the rest of
// the batch never reaches a shard: the distance-work counters stop advancing
// the moment the context dies.
func TestBatchCancelStopsRemainingQueries(t *testing.T) {
	const numShards, batch = 2, 64
	st := &fakeState{block: make(chan struct{})}
	sh, _ := fakeSharded(t, numShards, st)
	rs, err := dataset.Generate(dataset.NYTLike(batch, 10))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sh.SearchBatchContext(ctx, rs, 0.2)
		done <- err
	}()
	// Wait for the first query to actually be inside a sub-index search.
	for st.searches.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	close(st.block) // release the in-flight searches

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	// Only members already in flight at cancellation may have touched shards:
	// each shard answers the batch in order, so at most one per shard.
	// Everything else must have been cut off.
	limit := uint64(numShards)
	if got := st.searches.Load(); got > limit {
		t.Fatalf("after cancel %d sub-index searches ran, want <= %d (in-flight only)", got, limit)
	}
	before := st.searches.Load()
	time.Sleep(2 * time.Millisecond)
	if got := st.searches.Load(); got != before {
		t.Fatalf("searches kept advancing after cancellation: %d -> %d", before, got)
	}
}

// TestBatchFirstErrorShortCircuits: one failing member cancels the batch, so
// no shard burns through its remaining members after the outcome is decided.
func TestBatchFirstErrorShortCircuits(t *testing.T) {
	const numShards, batch = 2, 64
	sentinel := errors.New("sub-index exploded")
	st := &fakeState{searchErr: sentinel}
	sh, _ := fakeSharded(t, numShards, st)
	rs, err := dataset.Generate(dataset.NYTLike(batch, 10))
	if err != nil {
		t.Fatal(err)
	}

	_, err = sh.SearchBatchContext(context.Background(), rs, 0.2)
	if !errors.Is(err, sentinel) {
		t.Fatalf("batch error = %v, want the sub-index failure", err)
	}
	// The real failure must win over the cancellations it triggered.
	if errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v reports cancellation instead of the failure that caused it", err)
	}
	limit := uint64(numShards)
	if got := st.searches.Load(); got > limit {
		t.Fatalf("failing batch still ran %d sub-index searches, want <= %d", got, limit)
	}
}
