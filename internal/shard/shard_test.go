package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"topk"
	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// Every index kind of package topk satisfies the serving contract, and the
// two mutable kinds the whole mutation half.
var (
	_ shard.Index   = (*topk.BlockedIndex)(nil)
	_ shard.Index   = (*topk.CoarseIndex)(nil)
	_ shard.Index   = (*topk.MetricTree)(nil)
	_ shard.Mutable = (*topk.InvertedIndex)(nil)
	_ shard.Mutable = (*topk.HybridIndex)(nil)
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
		"coarse": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewCoarseIndex(rs, topk.WithThetaC(0.3))
		},
		"inverted-drop": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewInvertedIndex(rs)
		},
		"merge": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewInvertedIndex(rs, topk.WithAlgorithm(topk.ListMerge))
		},
		"blocked": func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewBlockedIndex(rs)
		},
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
				difftest.CheckMatch(t, name, sh, ref.(difftest.Searcher), qs, thetas)
			}
		})
	}
}

// TestSearchBatchMatchesSearch: every shard answers a batch member by member,
// so SearchBatchContext, SearchBatchThetasContext and per-query SearchContext
// must agree byte for byte — and with the linear-scan oracle below θ = 1 —
// over every serving kind, fresh and after a mutation workload, at one
// threshold and at mixed ones. The deprecated SearchBatchSharedContext must
// decline every batch without touching a shard.
func TestSearchBatchMatchesSearch(t *testing.T) {
	kinds := []struct {
		name  string
		build shard.Builder
	}{
		{"coarse", coarseBuilder},
		{"inverted-drop", invertedBuilder},
		{"merge", func(rs []ranking.Ranking) (shard.Index, error) {
			return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.ListMerge))
		}},
		{"hybrid", hybridBuilder},
	}
	for seed, kind := range kinds {
		for _, mutated := range []bool{false, true} {
			if mutated && kind.name == "coarse" {
				continue // read-only
			}
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
					difftest.Mutate(t, name, sh, o, rng, 400, 200)
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
				mixed := make([]float64, len(queries))
				for i := range mixed {
					mixed[i] = difftest.Thetas[i%len(difftest.Thetas)]
				}
				for _, theta := range []float64{0, 0.1, 0.3, 0.6, 1} {
					uniform := slices.Repeat([]float64{theta}, len(queries))
					batch, err := sh.SearchBatchContext(context.Background(), queries, theta)
					if err != nil {
						t.Fatal(err)
					}
					checkBatch(t, sh, o, queries, uniform, batch)
				}
				checkBatch(t, sh, o, queries, mixed, nil)
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

// checkBatch answers queries at thetas through SearchBatchThetasContext and
// compares every member with its per-query SearchContext answer, with batch
// (a SearchBatchContext answer of the same batch, when non-nil) and, below
// θ = 1, with the oracle.
func checkBatch(t *testing.T, sh *shard.Sharded, o *difftest.Oracle, queries []ranking.Ranking, thetas []float64, batch [][]ranking.Result) {
	t.Helper()
	got, tr, err := sh.SearchBatchThetasContext(context.Background(), queries, thetas)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(queries) || len(tr.Backends) == 0 {
		t.Fatalf("batch of %d answered %d members, trace %+v", len(queries), len(got), tr)
	}
	for i, q := range queries {
		want, err := sh.SearchContext(context.Background(), q, thetas[i])
		if err != nil {
			t.Fatal(err)
		}
		if !difftest.Equal(got[i], want) || (batch != nil && !difftest.Equal(batch[i], want)) {
			t.Fatalf("query %d (θ=%.2f): batch diverges from SearchContext:\n got %v\nwant %v", i, thetas[i], got[i], want)
		}
		if thetas[i] < 1 {
			if ref := o.SearchRaw(q, ranking.RawThreshold(thetas[i], o.K())); !difftest.Equal(want, ref) {
				t.Fatalf("query %d (θ=%.2f): diverges from the oracle:\n got %v\nwant %v", i, thetas[i], want, ref)
			}
		}
	}
}

func TestStats(t *testing.T) {
	rs, qs := testCollection(t, 300, 10)
	sh, err := shard.New(rs, 3, func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewInvertedIndex(rs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := sh.Search(q, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	st := sh.Stats()
	if len(st) != 3 {
		t.Fatalf("got %d shard stats, want 3", len(st))
	}
	totalLen, prevEnd := 0, ranking.ID(0)
	for _, s := range st {
		if s.Offset != prevEnd {
			t.Fatalf("shard %d: offset %d, want %d (contiguous)", s.Shard, s.Offset, prevEnd)
		}
		prevEnd += ranking.ID(s.Len)
		totalLen += s.Len
		if s.Latency.Count != uint64(len(qs)) {
			t.Fatalf("shard %d: latency count %d, want %d", s.Shard, s.Latency.Count, len(qs))
		}
		if s.DistanceCalls == 0 {
			t.Fatalf("shard %d: no distance calls recorded", s.Shard)
		}
	}
	if totalLen != len(rs) {
		t.Fatalf("shard lengths sum to %d, want %d", totalLen, len(rs))
	}
	if sh.DistanceCalls() == 0 {
		t.Fatal("aggregate DistanceCalls is zero")
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
	difftest.Mutate(t, "sharded", sh, o, rng, 600, domain)
	if sh.Len() != o.Len() {
		t.Fatalf("Len=%d, oracle %d", sh.Len(), o.Len())
	}
	// Per-shard stats must sum to the live count.
	total, tombs := 0, 0
	for _, st := range sh.Stats() {
		total += st.Len
		tombs += st.Tombstones
	}
	if total != o.Len() {
		t.Fatalf("shard stats sum to %d, want %d", total, o.Len())
	}
	if tombs == 0 {
		t.Fatal("no tombstones reported after 600 mutations")
	}
	difftest.CheckSearch(t, "sharded", sh, o, rng, 10, domain)
	// Against an unsharded reference over the same surviving slots.
	ref, err := topk.NewInvertedIndexFromSlots(o.Slots())
	if err != nil {
		t.Fatal(err)
	}
	difftest.CheckMatch(t, "sharded-vs-unsharded", sh, ref, qs, []float64{0, 0.2})

	// Compaction preserves ids.
	if err := sh.Compact(); err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "sharded/compacted", sh, o, rng, 10, domain)

	// Slot round-trip: rebuild from the concatenated slot view.
	slots, ok := sh.Slots()
	if !ok {
		t.Fatal("no slot view")
	}
	sh2, err := shard.New(slots, 3, build) // different shard count on purpose
	if err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "sharded/restored", sh2, o, rng, 10, domain)
}

// TestImmutableKindRejectsMutations pins ErrImmutable for read-only shards.
func TestImmutableKindRejectsMutations(t *testing.T) {
	rs, _ := testCollection(t, 100, 10)
	sh, err := shard.New(rs, 2, func(chunk []ranking.Ranking) (shard.Index, error) {
		return topk.NewBlockedIndex(chunk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Insert(rs[0]); !errors.Is(err, shard.ErrImmutable) {
		t.Fatalf("Insert = %v, want ErrImmutable", err)
	}
	if err := sh.Delete(1); !errors.Is(err, shard.ErrImmutable) {
		t.Fatalf("Delete = %v, want ErrImmutable", err)
	}
	if err := sh.Update(1, rs[0]); !errors.Is(err, shard.ErrImmutable) {
		t.Fatalf("Update = %v, want ErrImmutable", err)
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

func TestHistogram(t *testing.T) {
	var h shard.Histogram
	durations := []time.Duration{
		500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durations)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durations))
	}
	if s.MaxMicros < 10000 {
		t.Fatalf("max = %vµs, want ≥ 10000", s.MaxMicros)
	}
	if s.P50Micros <= 0 || s.P99Micros < s.P50Micros {
		t.Fatalf("implausible quantiles p50=%v p99=%v", s.P50Micros, s.P99Micros)
	}
	if s.MeanMicros <= 0 {
		t.Fatalf("mean = %v, want > 0", s.MeanMicros)
	}
}
