package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"topk"
	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// The mutable inverted family satisfies the harness's contract.
var (
	_ shard.Index = (*topk.InvertedIndex)(nil)
	_ shard.Index = (*topk.HybridIndex)(nil)
)

// fakeIndex counts the searches it is asked for instead of running them:
// block, when non-nil, holds every started search until it is closed, and
// err is what every search returns. Its mutations are inert.
type fakeIndex struct {
	searches atomic.Uint64
	block    chan struct{}
	err      error
}

func (f *fakeIndex) Search(ranking.Ranking, float64) ([]ranking.Result, error) {
	f.searches.Add(1)
	if f.block != nil {
		<-f.block
	}
	return nil, f.err
}

func (f *fakeIndex) NearestNeighbors(q ranking.Ranking, _ int) ([]ranking.Result, error) {
	return f.Search(q, 0)
}

func (f *fakeIndex) Insert(ranking.Ranking) (ranking.ID, error) { return 0, errFakeMutation }
func (f *fakeIndex) Delete(ranking.ID) error                    { return errFakeMutation }
func (f *fakeIndex) Update(ranking.ID, ranking.Ranking) error   { return errFakeMutation }
func (f *fakeIndex) Rebuilds() uint64                           { return 0 }

var errFakeMutation = errors.New("fake index: no mutations")

func collection(t *testing.T, n int) []ranking.Ranking {
	t.Helper()
	rs, err := dataset.Generate(dataset.NYTLike(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// fakeSharded wraps f over a small collection, which it returns too.
func fakeSharded(t *testing.T, f *fakeIndex) (*shard.Sharded, []ranking.Ranking) {
	t.Helper()
	rs := collection(t, 64)
	sh, err := shard.New(rs, 4, func([]ranking.Ranking) (shard.Index, error) { return f, nil })
	if err != nil {
		t.Fatal(err)
	}
	return sh, rs
}

// TestNewBuildsOneIndex: whatever shard count is asked for, New calls build
// exactly once, over the whole collection, and reports that index as the
// one shard at offset 0.
func TestNewBuildsOneIndex(t *testing.T) {
	rs := collection(t, 40)
	f := &fakeIndex{}
	builds := 0
	sh, err := shard.New(rs, 4, func(all []ranking.Ranking) (shard.Index, error) {
		builds++
		if len(all) != len(rs) || &all[0] != &rs[0] {
			t.Errorf("build got %d rankings, want the whole collection of %d", len(all), len(rs))
		}
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if got := sh.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d, want 1", got)
	}
	if idx, off := sh.Shard(0); idx != shard.Index(f) || off != 0 {
		t.Fatalf("Shard(0) = %v, %d; want the built index at offset 0", idx, off)
	}
}

func TestEmptyCollectionRejected(t *testing.T) {
	_, err := shard.New(nil, 2, func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewInvertedIndex(rs)
	})
	if err == nil {
		t.Fatal("expected error for empty collection")
	}
}

// TestPreCanceledContextDoesNoShardWork: a request whose context is already
// dead must not reach the index on any query path.
func TestPreCanceledContextDoesNoShardWork(t *testing.T) {
	f := &fakeIndex{}
	sh, rs := fakeSharded(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sh.SearchTracedContext(ctx, rs[0], 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchTracedContext error = %v, want context.Canceled", err)
	}
	if _, err := sh.SearchBatchContext(ctx, rs[:4], 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchContext error = %v, want context.Canceled", err)
	}
	if _, err := sh.NearestNeighborsContext(ctx, rs[0], 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("NearestNeighborsContext error = %v, want context.Canceled", err)
	}
	if got := f.searches.Load(); got != 0 {
		t.Fatalf("pre-canceled requests ran %d searches, want 0", got)
	}
}

// TestExpiredDeadlineSurfacesAsDeadlineExceeded pins the error identity the
// HTTP layer maps to 504.
func TestExpiredDeadlineSurfacesAsDeadlineExceeded(t *testing.T) {
	f := &fakeIndex{}
	sh, rs := fakeSharded(t, f)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := sh.SearchTracedContext(ctx, rs[0], 0.2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if got := f.searches.Load(); got != 0 {
		t.Fatalf("expired request ran %d searches, want 0", got)
	}
}

// TestBatchCancelStopsRemainingQueries cancels a batch while its member 0 is
// inside the index: the batch reports the cancellation and no later member
// reaches the index.
func TestBatchCancelStopsRemainingQueries(t *testing.T) {
	f := &fakeIndex{block: make(chan struct{})}
	sh, rs := fakeSharded(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sh.SearchBatchContext(ctx, rs, 0.2)
		done <- err
	}()
	for f.searches.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	close(f.block)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	if got := f.searches.Load(); got != 1 {
		t.Fatalf("cancelled batch ran %d searches, want 1 (member 0 only)", got)
	}
}

// TestBatchFirstErrorShortCircuits: a failing member ends the batch with
// its error, and no later member runs.
func TestBatchFirstErrorShortCircuits(t *testing.T) {
	sentinel := errors.New("index exploded")
	f := &fakeIndex{err: sentinel}
	sh, rs := fakeSharded(t, f)
	if _, err := sh.SearchBatchContext(context.Background(), rs, 0.2); !errors.Is(err, sentinel) {
		t.Fatalf("batch error = %v, want the index failure", err)
	}
	if got := f.searches.Load(); got != 1 {
		t.Fatalf("failing batch ran %d searches, want 1", got)
	}
}

// TestShardedNearestNeighborsEdge: n ≤ 0 answers nil without reaching the
// index.
func TestShardedNearestNeighborsEdge(t *testing.T) {
	f := &fakeIndex{}
	sh, rs := fakeSharded(t, f)
	for _, n := range []int{0, -1} {
		if res, err := sh.NearestNeighborsContext(context.Background(), rs[0], n); err != nil || res != nil {
			t.Fatalf("n=%d: %v %v, want nil", n, res, err)
		}
	}
	if got := f.searches.Load(); got != 0 {
		t.Fatalf("n ≤ 0 ran %d searches, want 0", got)
	}
}

// TestSearchBatchMatchesSearch: SearchBatchContext and per-query
// SearchTracedContext must agree byte for byte — and with the linear-scan
// oracle below θ = 1 — over every serving kind, fresh and after a mutation
// workload. The deprecated SearchBatchSharedContext must decline every batch
// without reaching the index.
func TestSearchBatchMatchesSearch(t *testing.T) {
	type subject interface {
		shard.Index
		difftest.Mutable
	}
	kinds := []struct {
		name  string
		build func(rs []ranking.Ranking) (subject, error)
	}{
		{"inverted-drop", func(rs []ranking.Ranking) (subject, error) {
			return topk.NewInvertedIndexFromSlots(rs)
		}},
		{"merge", func(rs []ranking.Ranking) (subject, error) {
			return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.ListMerge))
		}},
		{"hybrid", func(rs []ranking.Ranking) (subject, error) {
			return topk.NewHybridIndexFromSlots(rs)
		}},
	}
	for seed, kind := range kinds {
		for _, mutated := range []bool{false, true} {
			name := kind.name + "/fresh"
			if mutated {
				name = kind.name + "/mutated"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(47 + seed)))
				rs := difftest.RandomCollection(rng, 400, 8, 200)
				var idx subject
				sh, err := shard.New(rs, 3, func(rs []ranking.Ranking) (shard.Index, error) {
					var err error
					idx, err = kind.build(rs)
					return idx, err
				})
				if err != nil {
					t.Fatal(err)
				}
				o := difftest.NewOracle(rs)
				if mutated {
					difftest.Mutate(t, name, idx, o, rng, 400, 200)
				}
				// A reformulation-style batch: clusters of near-duplicate queries.
				var queries []ranking.Ranking
				for i := 0; i < 8; i++ {
					base := difftest.RandomRanking(rng, 8, 200)
					queries = append(queries, base)
					for j := 0; j < 3; j++ {
						queries = append(queries, difftest.Perturb(rng, base, 200))
					}
				}
				for _, theta := range []float64{0, 0.1, 0.3, 0.6, 1} {
					checkBatch(t, sh, o, queries, theta)
				}
			})
		}
	}
	t.Run("shared-stub", func(t *testing.T) {
		f := &fakeIndex{}
		sh, rs := fakeSharded(t, f)
		res, ok, err := sh.SearchBatchSharedContext(context.Background(), rs[:8], 0.2)
		if res != nil || ok || err != nil {
			t.Fatalf("SearchBatchSharedContext = %v, %v, %v; want nil, false, nil", res, ok, err)
		}
		if got := f.searches.Load(); got != 0 {
			t.Fatalf("SearchBatchSharedContext ran %d searches, want 0", got)
		}
	})
}

// checkBatch answers queries at theta through SearchBatchContext and
// compares every member with its per-query SearchTracedContext answer and,
// below θ = 1, with the oracle.
func checkBatch(t *testing.T, sh *shard.Sharded, o *difftest.Oracle, queries []ranking.Ranking, theta float64) {
	t.Helper()
	got, err := sh.SearchBatchContext(context.Background(), queries, theta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(queries) {
		t.Fatalf("batch of %d answered %d members", len(queries), len(got))
	}
	for i, q := range queries {
		want, _, err := sh.SearchTracedContext(context.Background(), q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if !difftest.Equal(got[i], want) {
			t.Fatalf("query %d (θ=%.2f): batch diverges from SearchTracedContext:\n got %v\nwant %v", i, theta, got[i], want)
		}
		if theta < 1 {
			if ref := o.SearchRaw(q, ranking.RawThreshold(theta, o.K())); !difftest.Equal(want, ref) {
				t.Fatalf("query %d (θ=%.2f): diverges from the oracle:\n got %v\nwant %v", i, theta, want, ref)
			}
		}
	}
}
