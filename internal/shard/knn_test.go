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

func coarseBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewCoarseIndex(rs)
}

func invertedBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewInvertedIndexFromSlots(rs)
}

func blockedBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewBlockedIndex(rs)
}

func hybridBuilder(rs []ranking.Ranking) (shard.Index, error) {
	return topk.NewHybridIndexFromSlots(rs)
}

// TestShardedNearestNeighbors checks the per-shard KNN fan-out with heap
// merge against the unsharded facade answer, byte-identically, across index
// kinds (including hybrid sub-indices) and shard counts.
func TestShardedNearestNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := difftest.RandomCollection(rng, 500, 8, 250)
	builders := map[string]shard.Builder{
		"coarse":   coarseBuilder,
		"inverted": invertedBuilder,
		"blocked":  blockedBuilder,
		"hybrid":   hybridBuilder,
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
					got, err := sh.NearestNeighbors(q, n)
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
	if res, err := sh.NearestNeighbors(rs[0], 0); err != nil || res != nil {
		t.Fatalf("n=0: %v %v", res, err)
	}
	o := difftest.NewOracle(rs)
	difftest.Mutate(t, "sharded", sh, o, rng, 300, 150)
	for trial := 0; trial < 10; trial++ {
		q := difftest.RandomRanking(rng, 8, 150)
		got, err := sh.NearestNeighbors(q, 9)
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

// TestSearchBatchThetas checks the mixed-radius batch against per-query
// Search answers.
func TestSearchBatchThetas(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	rs := difftest.RandomCollection(rng, 300, 8, 200)
	sh, err := shard.New(rs, 4, coarseBuilder)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]ranking.Ranking, 9)
	thetas := make([]float64, 9)
	for i := range queries {
		queries[i] = difftest.RandomRanking(rng, 8, 200)
		thetas[i] = difftest.Thetas[i%len(difftest.Thetas)]
	}
	got, _, err := sh.SearchBatchThetasContext(context.Background(), queries, thetas)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := sh.Search(q, thetas[i])
		if err != nil {
			t.Fatal(err)
		}
		if !difftest.Equal(got[i], want) {
			t.Fatalf("query %d (θ=%.2f): batch diverges from Search", i, thetas[i])
		}
	}
	if _, _, err := sh.SearchBatchThetasContext(context.Background(), queries, thetas[:3]); err == nil {
		t.Fatal("mismatched thetas length accepted")
	}
}

// TestShardedNearestNeighborsTraced checks the traced KNN fan-out: the same
// answer as the plain call, phase timings, and the answering backends with
// their distance-call cost, for a standalone kind as for hybrid sub-indices. Every KNN call is one observation of the fan-out
// and merge histograms, like a range search.
func TestShardedNearestNeighborsTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rs := difftest.RandomCollection(rng, 300, 8, 200)
	q := difftest.RandomRanking(rng, 8, 200)
	for name, build := range map[string]shard.Builder{"hybrid": hybridBuilder, "coarse": coarseBuilder} {
		sh, err := shard.New(rs, 3, build)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sh.NearestNeighbors(q, 9)
		if err != nil {
			t.Fatal(err)
		}
		fan0, merge0 := sh.Timings()
		got, tr, err := sh.NearestNeighborsTracedContext(context.Background(), q, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !difftest.Equal(got, want) {
			t.Fatalf("%s: traced KNN diverged:\n got %v\nwant %v", name, got, want)
		}
		if fan1, merge1 := sh.Timings(); fan1.Count != fan0.Count+1 || merge1.Count != merge0.Count+1 {
			t.Errorf("%s: KNN call moved fanout count %d→%d, merge count %d→%d; want +1 each",
				name, fan0.Count, fan1.Count, merge0.Count, merge1.Count)
		}
		if tr.FanoutMicros <= 0 {
			t.Errorf("%s: no fan-out timing in %+v", name, tr)
		}
		switch name {
		case "hybrid": // native posting-list KNN on every shard: one backend, no distance calls
			if len(tr.Backends) != 1 || tr.Backends[0] != "inverted" || tr.DistanceCalls != 0 {
				t.Errorf("hybrid attribution: %+v", tr)
			}
		case "coarse": // the expanding-radius reduction over the coarse range search
			if len(tr.Backends) != 1 || tr.Backends[0] != "coarse" || tr.DistanceCalls == 0 {
				t.Errorf("coarse attribution: %+v", tr)
			}
		}
	}
}
