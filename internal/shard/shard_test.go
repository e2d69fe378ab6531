package shard_test

import (
	"context"
	"math/rand"
	"testing"

	"topk"
	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// The mutable inverted family satisfies the serving contract.
var (
	_ shard.Index = (*topk.InvertedIndex)(nil)
	_ shard.Index = (*topk.HybridIndex)(nil)
)

func testCollection(t *testing.T, n, k int) ([]ranking.Ranking, []ranking.Ranking) {
	t.Helper()
	cfg := dataset.NYTLike(n, k)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	qs, err := dataset.Workload(rs, cfg, 30, 0.8, cfg.Seed+1000)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return rs, qs
}

func builders() map[string]shard.Builder {
	return map[string]shard.Builder{
		"inverted": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewInvertedIndex(rs, topk.WithAlgorithm(topk.FilterValidate))
		},
		"inverted-drop": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewInvertedIndex(rs)
		},
		"merge": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewInvertedIndex(rs, topk.WithAlgorithm(topk.ListMerge))
		},
		"hybrid": hybridBuilder,
	}
}

// TestShardedMatchesUnsharded is the correctness property of the sharding
// layer: for every index kind, shard count and threshold, the sharded
// answer must be identical — IDs, order and exact distances — to the
// unsharded answer over the same collection.
func TestShardedMatchesUnsharded(t *testing.T) {
	rs, qs := testCollection(t, 600, 10)
	thetas := []float64{0, 0.1, 0.2, 0.3}
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			ref, err := build(rs)
			if err != nil {
				t.Fatalf("unsharded build: %v", err)
			}
			for _, numShards := range []int{1, 2, 3, 7} {
				sh, err := shard.New(rs, numShards, build)
				if err != nil {
					t.Fatalf("shard.New(%d): %v", numShards, err)
				}
				if got := sh.NumShards(); got != numShards {
					t.Fatalf("NumShards = %d, want %d", got, numShards)
				}
				if sh.Len() != len(rs) || sh.K() != 10 {
					t.Fatalf("Len/K = %d/%d, want %d/10", sh.Len(), sh.K(), len(rs))
				}
				difftest.CheckMatch(t, name, difftest.Sharded{Sharded: sh}, ref.(difftest.Searcher), qs, thetas)
			}
		})
	}
}

// TestSearchBatchMatchesSearch: every shard answers a batch member by member,
// so SearchBatchContext and per-query SearchTracedContext must agree byte for
// byte — and with the linear-scan oracle below θ = 1 — over every serving
// kind, fresh and after a mutation workload. The deprecated
// SearchBatchSharedContext must decline every batch without touching a shard.
func TestSearchBatchMatchesSearch(t *testing.T) {
	kinds := []struct {
		name  string
		build shard.Builder
	}{
		{"inverted-drop", invertedBuilder},
		{"merge", mergeBuilder},
		{"hybrid", hybridBuilder},
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
				sh, err := shard.New(rs, 3, kind.build)
				if err != nil {
					t.Fatal(err)
				}
				o := difftest.NewOracle(rs)
				if mutated {
					difftest.Mutate(t, name, difftest.Sharded{Sharded: sh}, o, rng, 400, 200)
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
		st := &fakeState{}
		sh, rs := fakeSharded(t, 4, st)
		res, ok, err := sh.SearchBatchSharedContext(context.Background(), rs[:8], 0.2)
		if res != nil || ok || err != nil {
			t.Fatalf("SearchBatchSharedContext = %v, %v, %v; want nil, false, nil", res, ok, err)
		}
		if got := st.searches.Load(); got != 0 {
			t.Fatalf("SearchBatchSharedContext scheduled %d sub-index searches, want 0", got)
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

// TestMutationRouting checks the mutation surface of the sharded wrapper:
// inserts extend the last shard's open id range, deletes and updates route
// to the owning shard, the live count stays accurate, and after any mix of
// mutations the sharded answer still matches an unsharded reference built
// over the surviving collection.
func TestMutationRouting(t *testing.T) {
	rs, qs := testCollection(t, 300, 10)
	build := func(chunk []ranking.Ranking) (shard.Index, error) {
		return topk.NewInvertedIndexFromSlots(chunk)
	}
	sh, err := shard.New(rs, 4, build)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	o := difftest.NewOracle(rs)
	domain := difftest.DomainOf(rs)
	difftest.Mutate(t, "sharded", difftest.Sharded{Sharded: sh}, o, rng, 600, domain)
	if sh.Len() != o.Len() {
		t.Fatalf("Len=%d, oracle %d", sh.Len(), o.Len())
	}
	difftest.CheckSearch(t, "sharded", difftest.Sharded{Sharded: sh}, o, rng, 10, domain)
	// Against an unsharded reference over the same surviving slots.
	ref, err := topk.NewInvertedIndexFromSlots(o.Slots())
	if err != nil {
		t.Fatal(err)
	}
	difftest.CheckMatch(t, "sharded-vs-unsharded", difftest.Sharded{Sharded: sh}, ref, qs, []float64{0, 0.2})

	// Compaction preserves ids.
	if err := (difftest.Sharded{Sharded: sh}).Compact(); err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "sharded/compacted", difftest.Sharded{Sharded: sh}, o, rng, 10, domain)

	// Slot round-trip: rebuild from the concatenated slot view.
	slots := difftest.Sharded{Sharded: sh}.Slots()
	sh2, err := shard.New(slots, 3, build) // different shard count on purpose
	if err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "sharded/restored", difftest.Sharded{Sharded: sh2}, o, rng, 10, domain)
}

func TestEmptyCollectionRejected(t *testing.T) {
	_, err := shard.New(nil, 2, func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewInvertedIndex(rs)
	})
	if err == nil {
		t.Fatal("expected error for empty collection")
	}
}
