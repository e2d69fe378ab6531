package topk

import (
	"bytes"
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// FuzzHybridMutation drives a byte-string-encoded mutation workload through
// a HybridIndex and the linear-scan oracle in lockstep, with compactions and
// Force flips across "", inverted and adaptsearch interleaved as ops of
// their own: a pin outlives the mutations and compactions after it, so the
// adaptsearch sidecar is built, reused, invalidated by a changed id space and
// dropped by lifting the pin, all in the fuzzed surface. Every query op
// cross-checks the range answer under the current pin byte-identically
// against the oracle, and with no pin set also under each forced backend.
// Seeded into CI's fuzz-smoke step.
func FuzzHybridMutation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{4, 200, 1, 7, 2, 9, 3, 3, 0, 0, 4, 100, 1, 1})
	f.Add([]byte{2, 2, 2, 2, 1, 1, 1, 1, 3, 3, 0, 255})
	// Pinned to adaptsearch across an insert, a delete, a compaction and an
	// update, each followed by a wide query: the sidecar must follow every
	// change of the id space and filter every tombstone.
	f.Add([]byte{5, 2, 4, 250, 0, 7, 4, 250, 1, 3, 4, 250, 3, 0, 4, 250, 2, 5, 4, 250, 5, 0, 4, 250})
	// A delete, a compaction and an insert restore the id space's size but
	// not its contents: the sidecar must be rebuilt all the same.
	f.Add([]byte{5, 2, 0, 7, 4, 250, 1, 3, 3, 0, 0, 9, 4, 250})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		rng := rand.New(rand.NewSource(61))
		rs := difftest.RandomCollection(rng, 50, 6, 40)
		o := difftest.NewOracle(rs)
		h, err := NewHybridIndex(rs, WithHybridDeltaRatio(0))
		if err != nil {
			t.Fatal(err)
		}
		modes := []string{"", "inverted", "adaptsearch"}
		pin := ""
		check := func(forced string, q Ranking, theta float64, want []Result) {
			t.Helper()
			if err := h.Force(forced); err != nil {
				t.Fatal(err)
			}
			got, err := h.Search(q, theta)
			if err != nil {
				t.Fatalf("search (forced=%q): %v", forced, err)
			}
			if !difftest.Equal(got, want) {
				t.Fatalf("θ=%.3f forced=%q diverged:\n got %v\nwant %v", theta, forced, got, want)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 6 {
			case 0: // insert
				r := difftest.RandomRanking(rand.New(rand.NewSource(int64(arg))), 6, 40)
				id, err := h.Insert(r)
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				if want := o.Insert(r); id != want {
					t.Fatalf("insert id %d, oracle %d", id, want)
				}
			case 1: // delete
				ids := o.LiveIDs()
				if len(ids) <= 1 {
					continue
				}
				id := ids[int(arg)%len(ids)]
				if err := h.Delete(id); err != nil {
					t.Fatalf("delete(%d): %v", id, err)
				}
				if err := o.Delete(id); err != nil {
					t.Fatal(err)
				}
			case 2: // update
				ids := o.LiveIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[int(arg)%len(ids)]
				r := difftest.RandomRanking(rand.New(rand.NewSource(int64(arg)+1000)), 6, 40)
				if err := h.Update(id, r); err != nil {
					t.Fatalf("update(%d): %v", id, err)
				}
				if err := o.Update(id, r); err != nil {
					t.Fatal(err)
				}
			case 3: // compact
				if err := h.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			case 4: // cross-check a query at a fuzzed threshold
				q := difftest.RandomRanking(rand.New(rand.NewSource(int64(arg)+2000)), 6, 40)
				theta := float64(arg) / 255
				// At θ = 1 the oracle is asked for what the inverted family can
				// see, the ≤ dmax−1 ball (see clampRawTheta): a ranking sharing
				// no item with the query is in no posting list.
				want := o.SearchRaw(q, clampRawTheta(ranking.RawThreshold(theta, o.K()), o.K()))
				check(pin, q, theta, want)
				if pin == "" {
					// Unforced last, so the loop leaves the route unpinned.
					for _, forced := range []string{"inverted", "adaptsearch", ""} {
						check(forced, q, theta, want)
					}
				}
			default: // pin a backend, or lift the pin
				pin = modes[int(arg)%len(modes)]
				if err := h.Force(pin); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Final full check across the threshold grid, under every route.
		for _, forced := range modes {
			if err := h.Force(forced); err != nil {
				t.Fatal(err)
			}
			difftest.CheckSearch(t, "fuzz final (forced="+forced+")", h, o, rng, 4, 40)
		}
	})
}

// clampRawTheta caps a raw threshold at dmax−1. The inverted-index family
// draws candidates from posting lists, so rankings sharing no item with the
// query — at distance exactly dmax — are invisible to it, while the oracle's
// linear scan would return them. Since a shared item strictly lowers the
// Footrule below dmax, the ≤ dmax−1 ball is exactly what the hybrid answers
// at θ = 1, on either backend.
func clampRawTheta(raw, k int) int {
	if dmax := ranking.MaxDistance(k); raw >= dmax {
		return dmax - 1
	}
	return raw
}

// FuzzKNNNative drives a byte-string-encoded mutation workload through the
// three indexes that answer KNN natively — InvertedIndex, HybridIndex and a
// 3-shard collection of hybrids — and the linear-scan oracle in lockstep.
// Every query op holds their answers byte-identical to the oracle and to
// knn.Expanding over the same index, at a fuzzed n, with compactions
// interleaved. The small item domain makes distance ties at the cut (decided
// by external id once an update has run) the common case. Seeded into CI's
// fuzz-smoke step.
func FuzzKNNNative(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 7, 2, 9, 4, 3, 4, 200, 1, 1, 4, 40})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 4, 255, 3, 0, 4, 9})
	// Skew: thirty copies of one ranking make five lists hold half the
	// collection, and queries whose late positions hit them close admission
	// (n = 2, 4, 3) — before and after a delete, an update and a fold.
	f.Add(append(bytes.Repeat([]byte{0, 0}, 30), 4, 61, 4, 63, 1, 5, 2, 9, 4, 122, 3, 0, 4, 61))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		const k, domain = 5, 24
		rs := difftest.RandomCollection(rand.New(rand.NewSource(67)), 40, k, domain)
		subjects := knnSubjects(t, rs)
		oracles := map[string]*difftest.Oracle{}
		for name := range subjects {
			oracles[name] = difftest.NewOracle(rs)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			for name, idx := range subjects {
				o := oracles[name]
				switch ops[i] % 5 {
				case 0: // insert
					r := difftest.RandomRanking(rand.New(rand.NewSource(int64(arg))), k, domain)
					id, err := idx.Insert(r)
					if err != nil {
						t.Fatalf("%s insert: %v", name, err)
					}
					if want := o.Insert(r); id != want {
						t.Fatalf("%s insert id %d, oracle %d", name, id, want)
					}
				case 1: // delete — down to an all-tombstone collection
					ids := o.LiveIDs()
					if len(ids) == 0 {
						continue
					}
					id := ids[int(arg)%len(ids)]
					if err := idx.Delete(id); err != nil {
						t.Fatalf("%s delete(%d): %v", name, id, err)
					}
					if err := o.Delete(id); err != nil {
						t.Fatal(err)
					}
				case 2: // update
					ids := o.LiveIDs()
					if len(ids) == 0 {
						continue
					}
					id := ids[int(arg)%len(ids)]
					r := difftest.RandomRanking(rand.New(rand.NewSource(int64(arg)+1000)), k, domain)
					if err := idx.Update(id, r); err != nil {
						t.Fatalf("%s update(%d): %v", name, id, err)
					}
					if err := o.Update(id, r); err != nil {
						t.Fatal(err)
					}
				case 3: // compact: rebuild over the survivors
					if err := idx.(compactor).Compact(); err != nil {
						t.Fatalf("%s compact: %v", name, err)
					}
				default: // cross-check one query at a fuzzed n
					q := difftest.RandomRanking(rand.New(rand.NewSource(int64(arg)+2000)), k, domain)
					if arg%4 == 0 {
						q = Ranking{500, 501, 502, 503, Item(arg)} // little or no overlap: the dmax fill
					}
					checkKNN(t, name, idx, o, []Ranking{q}, []int{1 + int(arg)%60})
				}
			}
		}
		for name, idx := range subjects {
			o := oracles[name]
			checkKNN(t, "final "+name, idx, o, mixedQueries(rand.New(rand.NewSource(71)), o, 4, domain), []int{1, 6, 100})
		}
	})
}
