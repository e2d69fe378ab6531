package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
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

func TestSearchBatchMatchesSearch(t *testing.T) {
	rs, qs := testCollection(t, 400, 10)
	sh, err := shard.New(rs, 4, func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithThetaC(0.3))
	})
	if err != nil {
		t.Fatal(err)
	}
	const theta = 0.2
	batch, err := sh.SearchBatchContext(context.Background(), qs, theta)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch size %d, want %d", len(batch), len(qs))
	}
	for i, q := range qs {
		want, err := sh.Search(q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], want) && !(len(batch[i]) == 0 && len(want) == 0) {
			t.Fatalf("query %d: batch answer diverges", i)
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
