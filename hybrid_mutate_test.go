package topk

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"topk/internal/difftest"
	"topk/internal/persist"
)

// checkHybridKNN verifies NearestNeighbors against the brute oracle over
// the current slot view, for a few query/n combinations.
func checkHybridKNN(t *testing.T, name string, h *HybridIndex, o *difftest.Oracle, rng *rand.Rand, domain int) {
	t.Helper()
	slots := o.Slots()
	for trial := 0; trial < 6; trial++ {
		q := difftest.RandomRanking(rng, o.K(), domain)
		for _, n := range []int{1, 5, 50} {
			got, err := h.NearestNeighbors(q, n)
			if err != nil {
				t.Fatalf("%s: NearestNeighbors(n=%d): %v", name, n, err)
			}
			if want := bruteNNSlots(slots, q, n); !difftest.Equal(got, want) {
				t.Fatalf("%s n=%d:\n got %v\nwant %v", name, n, got, want)
			}
		}
	}
}

// TestHybridMutableDifferential is the acceptance contract of the mutable
// hybrid: after a 1k-op random mutation workload the engine answers
// byte-identically to the linear-scan oracle — under the default route and
// under each forced backend (adaptsearch built over the inverted index's
// id space, tombstones filtered), every plan landing on the backend that
// should answer — before and after a compaction and across a persist
// snapshot round-trip.
func TestHybridMutableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := difftest.RandomCollection(rng, 400, 10, 250)
	o := difftest.NewOracle(rs)
	// Automatic compaction off: the pre-compaction state must keep many
	// tombstones and post-build rankings for the sidecar to filter and index.
	h := hybridFor(t, rs, WithHybridDeltaRatio(0))

	difftest.Mutate(t, "hybrid", h, o, rng, 1000, 250)
	if h.Tombstones() == 0 {
		t.Fatal("workload left no tombstones to test")
	}

	check := func(phase string, trials int) {
		t.Helper()
		checkPlansOn(t, h, "inverted", func() {
			difftest.CheckSearch(t, "hybrid(routed) "+phase, h, o, rng, trials, 250)
		})
		for _, name := range HybridBackends {
			if err := h.Force(name); err != nil {
				t.Fatal(err)
			}
			checkPlansOn(t, h, name, func() {
				difftest.CheckSearch(t, "hybrid(forced="+name+") "+phase, h, o, rng, trials/2+1, 250)
				checkHybridKNN(t, "hybrid knn(forced="+name+") "+phase, h, o, rng, 250)
			})
		}
		if err := h.Force(""); err != nil {
			t.Fatal(err)
		}
	}
	check("pre-compact", 20)

	// Compaction: rebuild over the survivors; the sidecar follows the new
	// id space.
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	if h.Rebuilds() == 0 || h.Tombstones() != 0 {
		t.Fatalf("Compact left rebuilds=%d tombstones=%d", h.Rebuilds(), h.Tombstones())
	}
	check("post-compact", 15)

	// Keep mutating after the compaction: external ids must stay aligned.
	difftest.Mutate(t, "hybrid post-compact", h, o, rng, 300, 250)
	check("post-compact mutated", 10)

	// Snapshot round-trip through persist: tombstones are materialized into
	// the slot array and every id stays retired/live.
	var buf bytes.Buffer
	if _, err := persist.WritePagedTo(&buf, h.Slots()); err != nil {
		t.Fatal(err)
	}
	pc, err := persist.ReadPagedAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHybridIndexFromSlots(pc.Slots(), WithHybridDeltaRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "hybrid(snapshot round-trip)", h2, o, rng, 15, 250)
	difftest.Mutate(t, "hybrid restored", h2, o, rng, 200, 250)
	difftest.CheckSearch(t, "hybrid(restored, mutated)", h2, o, rng, 10, 250)
}

// TestHybridZeroLiveEpoch covers a hybrid built over zero live rankings: the
// first insert defines k, and every mutation after it lands in the inverted
// index, over whose id space the adaptsearch sidecar is then built. Both
// forced routes and KNN must match the oracle and keep rejecting malformed
// queries; the inverted route answers KNN natively (no distance calls), like
// in every other state.
func TestHybridZeroLiveEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	slots := make([]Ranking, 4)
	o := difftest.NewOracle(slots)
	h, err := NewHybridIndexFromSlots(slots, WithHybridDeltaRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	first := difftest.RandomRanking(rng, 6, 60)
	id, err := h.Insert(first)
	if err != nil {
		t.Fatal(err)
	}
	if want := o.Insert(first); id != want {
		t.Fatalf("first insert id %d, oracle %d", id, want)
	}
	difftest.Mutate(t, "hybrid(zero-live)", h, o, rng, 200, 60)
	if h.Rebuilds() != 0 || h.Tombstones() == 0 {
		t.Fatalf("workload left rebuilds=%d tombstones=%d", h.Rebuilds(), h.Tombstones())
	}
	dup := first.Clone()
	dup[1] = dup[0]
	for _, name := range HybridBackends {
		if err := h.Force(name); err != nil {
			t.Fatal(err)
		}
		before := h.DistanceCalls()
		difftest.CheckSearch(t, "zero-live(forced="+name+")", h, o, rng, 10, 60)
		mid := h.DistanceCalls()
		checkHybridKNN(t, "zero-live knn(forced="+name+")", h, o, rng, 60)
		if mid == before {
			t.Fatalf("forced=%s: range search counted no distance calls", name)
		}
		if native := name == "inverted"; native != (h.DistanceCalls() == mid) {
			t.Fatalf("forced=%s: KNN moved DistanceCalls %d → %d", name, mid, h.DistanceCalls())
		}
		for what, q := range map[string]Ranking{"wrong-size": first[:5], "duplicate-item": dup} {
			if _, err := h.Search(q, 0.2); err == nil {
				t.Fatalf("forced=%s: %s range query accepted", name, what)
			}
			if _, err := h.NearestNeighbors(q, 3); err == nil {
				t.Fatalf("forced=%s: %s KNN query accepted", name, what)
			}
		}
	}
}

// TestHybridBackgroundRebuild drives automatic compaction: a small delta
// ratio and a mutation burst, and the engine must fold on its own, inside
// the mutation that crosses the ratio, while answers stay oracle-identical
// throughout.
func TestHybridBackgroundRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rs := difftest.RandomCollection(rng, 300, 8, 200)
	o := difftest.NewOracle(rs)
	h := hybridFor(t, rs, WithHybridDeltaRatio(0.1))

	difftest.Mutate(t, "hybrid auto-fold", h, o, rng, 600, 200)
	if h.Rebuilds() == 0 {
		t.Fatal("no automatic compaction ran")
	}
	difftest.CheckSearch(t, "hybrid(after auto-fold)", h, o, rng, 20, 200)
	checkHybridKNN(t, "hybrid knn(after auto-fold)", h, o, rng, 200)
}

// TestHybridMutateConcurrent hammers one hybrid index from 16 goroutines
// mixing searches, KNN, Force flips and mutations, with automatic compaction
// enabled — run with -race, it covers the adaptsearch sidecar being built and
// replaced while the id space moves under it. Mutators own disjoint id
// stripes so each can check its own reads; searchers only verify invariants
// (sorted ids, live-only results).
func TestHybridMutateConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rs := difftest.RandomCollection(rng, 400, 8, 200)
	h := hybridFor(t, rs, WithHybridDeltaRatio(0.15))

	const goroutines = 16
	const opsPer = 60
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			if g%2 == 0 {
				// Searcher: routed range + KNN; results must be id-sorted.
				for i := 0; i < opsPer; i++ {
					if i%10 == 0 {
						if err := h.Force([]string{"", "inverted", "adaptsearch"}[rng.Intn(3)]); err != nil {
							errc <- err
							return
						}
					}
					q := difftest.RandomRanking(rng, 8, 200)
					res, err := h.Search(q, difftest.Thetas[rng.Intn(len(difftest.Thetas))])
					if err != nil {
						errc <- err
						return
					}
					for j := 1; j < len(res); j++ {
						if res[j-1].ID >= res[j].ID {
							errc <- errMismatch
							return
						}
					}
					if i%8 == 0 {
						if _, err := h.NearestNeighbors(q, 5); err != nil {
							errc <- err
							return
						}
					}
				}
				return
			}
			// Mutator: insert → update → delete its own ids only.
			var mine []ID
			for i := 0; i < opsPer; i++ {
				switch {
				case len(mine) == 0 || rng.Intn(3) == 0:
					id, err := h.Insert(difftest.RandomRanking(rng, 8, 200))
					if err != nil {
						errc <- err
						return
					}
					mine = append(mine, id)
				case rng.Intn(2) == 0:
					if err := h.Update(mine[rng.Intn(len(mine))], difftest.RandomRanking(rng, 8, 200)); err != nil {
						errc <- err
						return
					}
				default:
					last := len(mine) - 1
					if err := h.Delete(mine[last]); err != nil {
						errc <- err
						return
					}
					mine = mine[:last]
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// A final full-consistency pass after a compaction: the surviving
	// collection must match a linear scan of its own slot view.
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(h.Slots())
	difftest.CheckSearch(t, "hybrid(after concurrent mutation)", h, o, rng, 15, 200)
}

// TestHybridMutationValidation pins the error contract: size mismatches,
// invalid rankings and unknown ids are rejected without mutating state.
func TestHybridMutationValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	rs := difftest.RandomCollection(rng, 50, 8, 100)
	h := hybridFor(t, rs, WithHybridDeltaRatio(0))

	if _, err := h.Insert(difftest.RandomRanking(rng, 5, 100)); err == nil {
		t.Fatal("insert of wrong-size ranking accepted")
	}
	if _, err := h.Insert(Ranking{1, 1, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Fatal("insert of duplicate-item ranking accepted")
	}
	if err := h.Delete(ID(999)); err == nil {
		t.Fatal("delete of unknown id accepted")
	}
	if err := h.Update(ID(999), difftest.RandomRanking(rng, 8, 100)); err == nil {
		t.Fatal("update of unknown id accepted")
	}
	if h.Len() != 50 || h.Tombstones() != 0 || len(h.Slots()) != 50 {
		t.Fatalf("rejected mutations changed state: len=%d tombstones=%d slots=%d",
			h.Len(), h.Tombstones(), len(h.Slots()))
	}
}
