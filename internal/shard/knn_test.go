package shard_test

import (
	"context"
	"math/rand"
	"testing"

	"topk"
	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
)

func invertedBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewInvertedIndexFromSlots(rs)
}

func mergeBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.ListMerge))
}

func hybridBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewHybridIndexFromSlots(rs)
}

// adaptsearchBuilder builds hybrid sub-indices pinned to adaptsearch: the
// kind whose KNN takes the expanding-radius reduction over its range search.
func adaptsearchBuilder(rs []ranking.Ranking) (shard.Index, error) {
	h, err := topk.NewHybridIndexFromSlots(rs)
	if err != nil {
		return nil, err
	}
	return h, h.Force("adaptsearch")
}

// TestShardedNearestNeighbors checks the per-shard KNN fan-out with heap
// merge against the unsharded facade answer, byte-identically, across index
// kinds (native posting-list KNN and the expanding-radius reduction of a
// hybrid pinned to adaptsearch) and shard counts.
func TestShardedNearestNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := difftest.RandomCollection(rng, 500, 8, 250)
	builders := map[string]shard.Builder{
		"inverted":    invertedBuilder,
		"merge":       mergeBuilder,
		"hybrid":      hybridBuilder,
		"adaptsearch": adaptsearchBuilder,
	}
	for name, build := range builders {
		ref, err := build(rs)
		if err != nil {
			t.Fatal(err)
		}
		for _, numShards := range []int{1, 3, 7} {
			sh, err := shard.New(rs, numShards, build)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				q := difftest.RandomRanking(rng, 8, 250)
				for _, n := range []int{1, 5, 20, 600} {
					got, err := sh.NearestNeighborsContext(context.Background(), q, n)
					if err != nil {
						t.Fatalf("%s/%d shards: %v", name, numShards, err)
					}
					want, _, _, err := ref.NearestNeighborsTraced(q, n)
					if err != nil {
						t.Fatal(err)
					}
					if !difftest.Equal(got, want) {
						t.Fatalf("%s/%d shards, n=%d:\n got %v\nwant %v",
							name, numShards, n, got, want)
					}
				}
			}
		}
	}
}

// TestShardedNearestNeighborsEdge covers n <= 0 and sub-indices after
// mutations (tombstone holes in shards).
func TestShardedNearestNeighborsEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rs := difftest.RandomCollection(rng, 200, 8, 150)
	sh, err := shard.New(rs, 4, invertedBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sh.NearestNeighborsContext(context.Background(), rs[0], 0); err != nil || res != nil {
		t.Fatalf("n=0: %v %v", res, err)
	}
	o := difftest.NewOracle(rs)
	difftest.Mutate(t, "sharded", difftest.Sharded{Sharded: sh}, o, rng, 300, 150)
	for trial := 0; trial < 10; trial++ {
		q := difftest.RandomRanking(rng, 8, 150)
		got, err := sh.NearestNeighborsContext(context.Background(), q, 9)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle KNN over the mutated slot space.
		want := bruteNN(o, q, 9)
		if !difftest.Equal(got, want) {
			t.Fatalf("after mutations:\n got %v\nwant %v", got, want)
		}
	}
}

// bruteNN ranks the oracle's live slots by (distance, id).
func bruteNN(o *difftest.Oracle, q ranking.Ranking, n int) []ranking.Result {
	var all []ranking.Result
	for _, id := range o.LiveIDs() {
		all = append(all, ranking.Result{ID: id, Dist: ranking.Footrule(q, o.Slots()[id])})
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			if b.Dist < a.Dist || (b.Dist == a.Dist && b.ID < a.ID) {
				all[j-1], all[j] = b, a
			} else {
				break
			}
		}
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
