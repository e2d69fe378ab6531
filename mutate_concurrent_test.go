package topk_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"topk"
	"topk/internal/difftest"
	"topk/internal/ranking"
)

// TestConcurrentMutation hammers one shared index of every mutable kind
// from 16 goroutines that interleave Search, Insert, Delete and Update, with
// automatic compaction enabled so rebuilds fire underneath the readers. Under -race this verifies the whole
// RWMutex/pool/compaction scheme; afterwards, the surviving collection is
// read back through Slots and the index must answer byte-identically to a
// linear-scan oracle over it.
func TestConcurrentMutation(t *testing.T) {
	const (
		k      = 8
		domain = 300
		seedN  = 400
	)
	rng := rand.New(rand.NewSource(17))
	base := difftest.RandomCollection(rng, seedN, k, domain)

	kinds := map[string]func() (difftest.Mutable, error){
		"InvertedIndex": func() (difftest.Mutable, error) {
			return topk.NewInvertedIndex(base)
		},
		"InvertedIndex/Merge": func() (difftest.Mutable, error) {
			return topk.NewInvertedIndex(base, topk.WithAlgorithm(topk.ListMerge))
		},
		"HybridIndex": func() (difftest.Mutable, error) {
			return topk.NewHybridIndex(base)
		},
	}

	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			idx, err := build()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < concurrentGoroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for op := 0; op < 120; op++ {
						switch rng.Intn(6) {
						case 0: // insert
							if _, err := idx.Insert(difftest.RandomRanking(rng, k, domain)); err != nil {
								t.Errorf("insert: %v", err)
								return
							}
						case 1: // delete a random id; losing a race is fine
							id := topk.ID(rng.Intn(seedN))
							if err := idx.Delete(id); err != nil && !errors.Is(err, topk.ErrUnknownID) {
								t.Errorf("delete(%d): %v", id, err)
								return
							}
						case 2: // update a random id; losing a race is fine
							id := topk.ID(rng.Intn(seedN))
							r := difftest.RandomRanking(rng, k, domain)
							if err := idx.Update(id, r); err != nil && !errors.Is(err, topk.ErrUnknownID) {
								t.Errorf("update(%d): %v", id, err)
								return
							}
						default: // search: answers must stay well-formed
							q := difftest.RandomRanking(rng, k, domain)
							res, err := idx.Search(q, 0.2)
							if err != nil {
								t.Errorf("search: %v", err)
								return
							}
							raw := ranking.RawThreshold(0.2, k)
							for j, r := range res {
								if r.Dist > raw {
									t.Errorf("result dist %d beyond threshold %d", r.Dist, raw)
									return
								}
								if j > 0 && res[j-1].ID >= r.ID {
									t.Error("results not strictly ID-sorted")
									return
								}
							}
						}
					}
				}(int64(g) + 1)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Quiesced: the index must be internally consistent — identical
			// to a linear scan over its own surviving collection.
			slots := slotsView(t, idx)
			o := difftest.NewOracle(slots)
			difftest.CheckSearch(t, name, idx, o, rng, 10, domain)
		})
	}
}

func slotsView(t *testing.T, idx difftest.Mutable) []ranking.Ranking {
	t.Helper()
	v, ok := idx.(interface{ Slots() []ranking.Ranking })
	if !ok {
		t.Fatalf("no slot view on %T", idx)
	}
	return v.Slots()
}

// TestKConcurrentWithFirstInsert reads K() while the first insert of an index
// built over zero live rankings defines it — the one write K ever sees after
// construction, and every request of a serving collection reads it. Under
// -race an unlocked read is a reported data race.
func TestKConcurrentWithFirstInsert(t *testing.T) {
	kinds := map[string]func() (difftest.Mutable, error){
		"InvertedIndex": func() (difftest.Mutable, error) { return topk.NewInvertedIndexFromSlots(make([]topk.Ranking, 3)) },
		"HybridIndex":   func() (difftest.Mutable, error) { return topk.NewHybridIndexFromSlots(make([]topk.Ranking, 3)) },
	}
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			idx, err := build()
			if err != nil {
				t.Fatal(err)
			}
			inserted := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if k := idx.K(); k != 0 && k != 4 {
							t.Errorf("K() = %d, want 0 or 4", k)
						}
						select {
						case <-inserted:
							return
						default:
						}
					}
				}()
			}
			if _, err := idx.Insert(topk.Ranking{1, 2, 3, 4}); err != nil {
				t.Error(err)
			}
			close(inserted)
			wg.Wait()
			if idx.K() != 4 {
				t.Fatalf("K() = %d after the first insert, want 4", idx.K())
			}
		})
	}
}
