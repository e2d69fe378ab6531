package topk

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

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
// under each forced backend (adaptsearch merging the delta overlay, inverted
// its in-place state), every plan landing on the backend that should answer —
// before and after an epoch rebuild and across a persist snapshot round-trip.
func TestHybridMutableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := difftest.RandomCollection(rng, 400, 10, 250)
	o := difftest.NewOracle(rs)
	// Automatic rebuilds off: the pre-fold state must keep a large live
	// delta so the overlay path is what the differential check exercises.
	h := hybridFor(t, rs, WithHybridDeltaRatio(0))

	difftest.Mutate(t, "hybrid", h, o, rng, 1000, 250)
	if h.DeltaLen() == 0 || h.Tombstones() == 0 {
		t.Fatalf("workload left no overlay to test: delta=%d tombstones=%d",
			h.DeltaLen(), h.Tombstones())
	}

	check := func(phase string, trials int) {
		t.Helper()
		checkPlansOn(t, h, "inverted", func() {
			difftest.CheckSearch(t, "hybrid(routed) "+phase, h, o, rng, trials, 250)
		})
		for _, name := range h.Backends() {
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
	check("pre-fold", 20)

	// Epoch rebuild: fold the delta and tombstones into both backends.
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	if h.Rebuilds() == 0 || h.DeltaLen() != 0 || h.Tombstones() != 0 {
		t.Fatalf("Compact left rebuilds=%d delta=%d tombstones=%d",
			h.Rebuilds(), h.DeltaLen(), h.Tombstones())
	}
	check("post-fold", 15)

	// Keep mutating after the fold: external ids must stay aligned.
	difftest.Mutate(t, "hybrid post-fold", h, o, rng, 300, 250)
	check("post-fold mutated", 10)

	// Snapshot round-trip through persist: delta and tombstones are
	// materialized into the slot array and every id stays retired/live.
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

// TestHybridZeroLiveEpoch covers an epoch built over zero live rankings: both
// of its structures are real and empty, the first insert defines k, and every
// mutation after it lands in the inverted index — which the adaptsearch
// sidecar reads as delta. Both forced routes and KNN must match the oracle
// and keep rejecting malformed queries; the inverted route answers KNN
// natively (no distance calls), like in every other epoch.
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
	if h.Rebuilds() != 0 || h.DeltaLen() == 0 || h.Tombstones() == 0 {
		t.Fatalf("workload left rebuilds=%d delta=%d tombstones=%d",
			h.Rebuilds(), h.DeltaLen(), h.Tombstones())
	}
	dup := first.Clone()
	dup[1] = dup[0]
	for _, name := range h.Backends() {
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

// TestHybridBackgroundRebuild drives the automatic background fold: a small
// delta ratio, a mutation burst, and the engine must install a rebuilt
// epoch on its own — including mutations that raced the fold — while
// answers stay oracle-identical throughout.
func TestHybridBackgroundRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rs := difftest.RandomCollection(rng, 300, 8, 200)
	o := difftest.NewOracle(rs)
	h := hybridFor(t, rs, WithHybridDeltaRatio(0.1))

	difftest.Mutate(t, "hybrid auto-fold", h, o, rng, 600, 200)
	deadline := time.Now().Add(10 * time.Second)
	for h.Rebuilds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background rebuild never installed")
		}
		time.Sleep(time.Millisecond)
	}
	// Wait for any still-in-flight fold so the final check sees a quiesced
	// engine (mutations above may have re-triggered).
	for {
		h.mu.Lock()
		inFlight := h.rebuilding
		h.mu.Unlock()
		if !inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fold still in flight")
		}
		time.Sleep(time.Millisecond)
	}
	difftest.CheckSearch(t, "hybrid(after auto-fold)", h, o, rng, 20, 200)
	checkHybridKNN(t, "hybrid knn(after auto-fold)", h, o, rng, 200)
}

// TestHybridMutateConcurrent hammers one hybrid index from 16 goroutines
// mixing searches, KNN and mutations, with background folds enabled — run
// with -race. Mutators own disjoint id stripes so each can check its own
// reads; searchers only verify invariants (sorted ids, live-only results).
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
	// Quiesce any in-flight fold, then a final full-consistency pass: the
	// surviving collection must match a linear scan of its own slot view.
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
	if h.Len() != 50 || h.DeltaLen() != 0 || h.Tombstones() != 0 {
		t.Fatalf("rejected mutations changed state: len=%d delta=%d tombstones=%d",
			h.Len(), h.DeltaLen(), h.Tombstones())
	}
}
