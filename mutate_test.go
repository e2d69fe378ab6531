package topk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/persist"
	"topk/internal/ranking"
)

// compactor is the explicit-compaction surface of the mutable kinds.
type compactor interface {
	Compact() error
}

// mutableBuilder constructs a mutable index from an external-id slot array
// (nil entries = retired ids). The same builder serves the initial build,
// the rebuilt-from-scratch reference and the snapshot restore.
type mutableBuilder func(slots []Ranking) (difftest.Mutable, error)

func mutableBuilders(autoCompact bool) map[string]mutableBuilder {
	ratio := -1.0 // disabled: the test drives compaction explicitly
	if autoCompact {
		ratio = DefaultCompactionRatio
	}
	return map[string]mutableBuilder{
		"InvertedIndex/FV": func(slots []Ranking) (difftest.Mutable, error) {
			return NewInvertedIndexFromSlots(slots,
				WithAlgorithm(FilterValidate), WithCompactionRatio(ratio))
		},
		"InvertedIndex/Drop": func(slots []Ranking) (difftest.Mutable, error) {
			return NewInvertedIndexFromSlots(slots, WithCompactionRatio(ratio))
		},
		"InvertedIndex/Merge": func(slots []Ranking) (difftest.Mutable, error) {
			return NewInvertedIndexFromSlots(slots,
				WithAlgorithm(ListMerge), WithCompactionRatio(ratio))
		},
		// The ratio is the hybrid's compaction trigger, set through its own
		// option (WithHybridDeltaRatio).
		"HybridIndex": func(slots []Ranking) (difftest.Mutable, error) {
			return NewHybridIndexFromSlots(slots, WithHybridDeltaRatio(ratio))
		},
	}
}

const (
	diffK      = 8
	diffDomain = 300
)

// checkAgainstRebuilt is the acceptance property of the mutation subsystem:
// the mutated index, with its sparse external ids remapped through the
// oracle to the dense id space, answers byte-identically to an index of the
// same kind rebuilt from scratch over the surviving rankings.
func checkAgainstRebuilt(t *testing.T, name string, idx difftest.Mutable, build mutableBuilder,
	o *difftest.Oracle, rng *rand.Rand, trials int) {
	t.Helper()
	rebuilt, err := build(o.LiveRankings())
	if err != nil {
		t.Fatalf("%s: rebuild over survivors: %v", name, err)
	}
	for trial := 0; trial < trials; trial++ {
		q := difftest.RandomRanking(rng, diffK, diffDomain)
		for _, theta := range difftest.Thetas {
			got, err := idx.Search(q, theta)
			if err != nil {
				t.Fatalf("%s: mutated Search: %v", name, err)
			}
			want, err := rebuilt.Search(q, theta)
			if err != nil {
				t.Fatalf("%s: rebuilt Search: %v", name, err)
			}
			if !difftest.Equal(o.RemapToDense(got), want) {
				t.Fatalf("%s θ=%.2f: mutated index diverges from rebuild over survivors\n got %v\nwant %v",
					name, theta, o.RemapToDense(got), want)
			}
		}
	}
}

// TestDifferentialMutationWorkload runs a 1000-op random insert/delete/
// update workload against every mutable kind, then
// proves the index byte-identical to a linear-scan oracle and to an index
// rebuilt from scratch over the survivors — before compaction, after
// compaction, and after a snapshot v2 save/load round-trip.
func TestDifferentialMutationWorkload(t *testing.T) {
	for name, build := range mutableBuilders(false) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			base := difftest.RandomCollection(rng, 150, diffK, diffDomain)
			idx, err := build(base)
			if err != nil {
				t.Fatal(err)
			}
			o := difftest.NewOracle(base)

			difftest.Mutate(t, name, idx, o, rng, 1000, diffDomain)

			// Pre-compaction: tombstones are filtered on the query path.
			difftest.CheckSearch(t, name+"/pre-compact", idx, o, rng, 10, diffDomain)
			checkAgainstRebuilt(t, name+"/pre-compact", idx, build, o, rng, 5)

			// Post-compaction: the inner structures were rebuilt in place;
			// external ids must be preserved.
			if err := idx.(compactor).Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			difftest.CheckSearch(t, name+"/post-compact", idx, o, rng, 10, diffDomain)
			checkAgainstRebuilt(t, name+"/post-compact", idx, build, o, rng, 5)

			// Snapshot round-trip: slots → bytes → slots → index, ids
			// preserved (including retired ones).
			slots := slotsOf(t, idx)
			var buf bytes.Buffer
			if _, err := persist.WritePagedTo(&buf, slots); err != nil {
				t.Fatalf("WritePagedTo: %v", err)
			}
			back, err := persist.ReadPagedAll(buf.Bytes())
			if err != nil {
				t.Fatalf("ReadPagedAll: %v", err)
			}
			restored, err := build(back.Slots())
			if err != nil {
				t.Fatalf("restore from snapshot: %v", err)
			}
			difftest.CheckSearch(t, name+"/snapshot", restored, o, rng, 10, diffDomain)
			checkAgainstRebuilt(t, name+"/snapshot", restored, build, o, rng, 5)

			// The restored index remains fully mutable.
			difftest.Mutate(t, name+"/snapshot", restored, o, rng, 50, diffDomain)
			difftest.CheckSearch(t, name+"/snapshot+mutate", restored, o, rng, 5, diffDomain)
		})
	}
}

// slotsOf reads the external-id slot view off either facade kind.
func slotsOf(t *testing.T, idx difftest.Mutable) []Ranking {
	t.Helper()
	v, ok := idx.(interface{ Slots() []Ranking })
	if !ok {
		t.Fatalf("no slot view on %T", idx)
	}
	return v.Slots()
}

// TestDifferentialAutoCompaction reruns the workload with automatic
// compaction enabled at the default ratio — for HybridIndex through
// WithHybridDeltaRatio — so rebuilds fire mid-workload interleaved with
// queries against the oracle, and every kind must have counted them.
func TestDifferentialAutoCompaction(t *testing.T) {
	for name, build := range mutableBuilders(true) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			base := difftest.RandomCollection(rng, 120, diffK, diffDomain)
			idx, err := build(base)
			if err != nil {
				t.Fatal(err)
			}
			o := difftest.NewOracle(base)
			for round := 0; round < 5; round++ {
				difftest.Mutate(t, name, idx, o, rng, 200, diffDomain)
				difftest.CheckSearch(t, name, idx, o, rng, 4, diffDomain)
			}
			if n := idx.(interface{ Rebuilds() uint64 }).Rebuilds(); n == 0 {
				t.Fatal("no automatic compaction ran")
			}
		})
	}
}

// TestMutationErrors pins the error contract: unknown and retired ids
// report ErrUnknownID, size mismatches and duplicate items are rejected,
// and a failed mutation leaves the index unchanged.
func TestMutationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := difftest.RandomCollection(rng, 50, diffK, diffDomain)
	for name, build := range mutableBuilders(false) {
		t.Run(name, func(t *testing.T) {
			idx, err := build(base)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Delete(ID(len(base) + 10)); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("Delete(out of range) = %v, want ErrUnknownID", err)
			}
			if err := idx.Update(ID(len(base)+10), base[0]); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("Update(out of range) = %v, want ErrUnknownID", err)
			}
			if err := idx.Delete(3); err != nil {
				t.Fatalf("Delete(3): %v", err)
			}
			if err := idx.Delete(3); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("second Delete(3) = %v, want ErrUnknownID", err)
			}
			if err := idx.Update(3, base[0]); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("Update(deleted) = %v, want ErrUnknownID", err)
			}
			if err := idx.Update(4, Ranking{1, 2}); !errors.Is(err, ranking.ErrSizeMismatch) {
				t.Fatalf("Update(wrong k) = %v, want ErrSizeMismatch", err)
			}
			dup := base[4].Clone()
			dup[1] = dup[0]
			if err := idx.Update(4, dup); !errors.Is(err, ranking.ErrDuplicateItem) {
				t.Fatalf("Update(duplicate items) = %v, want ErrDuplicateItem", err)
			}
			if idx.Len() != len(base)-1 {
				t.Fatalf("Len=%d after one delete of %d", idx.Len(), len(base))
			}
			// The failed mutations must not have disturbed anything.
			o := difftest.NewOracle(base)
			if err := o.Delete(3); err != nil {
				t.Fatal(err)
			}
			difftest.CheckSearch(t, name, idx, o, rng, 5, diffDomain)
		})
	}
}

// TestFailedMutationDoesNotDefineK: on an index built over zero live rankings
// the ranking size is defined by the first insert that succeeds. A rejected
// insert or an update of a retired id must leave K() at 0, so that a valid
// insert of any other size still goes through — on both mutable kinds.
func TestFailedMutationDoesNotDefineK(t *testing.T) {
	builders := mutableBuilders(false)
	failing := map[string]func(idx difftest.Mutable) error{
		"Insert(duplicate item)": func(idx difftest.Mutable) error {
			_, err := idx.Insert(Ranking{1, 1, 3, 4})
			return err
		},
		"Update(retired id)": func(idx difftest.Mutable) error {
			return idx.Update(0, Ranking{1, 2, 3, 4})
		},
	}
	for name, build := range builders {
		for op, fail := range failing {
			t.Run(name+"/"+op, func(t *testing.T) {
				idx, err := build(make([]Ranking, 6))
				if err != nil {
					t.Fatal(err)
				}
				if err := fail(idx); err == nil {
					t.Fatal("mutation accepted")
				}
				if idx.K() != 0 || idx.Len() != 0 {
					t.Fatalf("failed mutation left K=%d Len=%d, want 0/0", idx.K(), idx.Len())
				}
				r := Ranking{10, 11, 12, 13, 14}
				id, err := idx.Insert(r)
				if err != nil {
					t.Fatalf("valid insert after the failed mutation: %v", err)
				}
				if id != 6 || idx.K() != 5 {
					t.Fatalf("id=%d K=%d after first insert, want 6/5", id, idx.K())
				}
				if res, err := idx.Search(r, 0); err != nil || len(res) != 1 || res[0].ID != id {
					t.Fatalf("search for the inserted ranking: %v, %v", res, err)
				}
			})
		}
	}
}

// TestAllTombstoneRangeRestores is the regression test for restoring a
// heavily-deleted snapshot: a contiguous id range deleted entirely must
// restore as retired ids, and an index over zero live slots must still
// build (empty, k adopted on the next insert).
func TestAllTombstoneRangeRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := difftest.RandomCollection(rng, 40, diffK, diffDomain)
	o := difftest.NewOracle(base)
	slots := append([]Ranking(nil), base...)
	for id := 10; id < 20; id++ {
		slots[id] = nil
		if err := o.Delete(ID(id)); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := NewInvertedIndexFromSlots(slots)
	if err != nil {
		t.Fatalf("restore with an all-tombstone range: %v", err)
	}
	if idx.Len() != 30 {
		t.Fatalf("Len=%d, want 30", idx.Len())
	}
	difftest.CheckSearch(t, "all-dead-range", idx, o, rng, 10, diffDomain)
	// The empty facade kinds stay mutable, adopting k on first insert.
	empty, err := NewHybridIndexFromSlots(make([]Ranking, 5))
	if err != nil {
		t.Fatalf("all-tombstone hybrid slots: %v", err)
	}
	if empty.Len() != 0 || empty.K() != 0 {
		t.Fatalf("Len=%d K=%d, want 0/0", empty.Len(), empty.K())
	}
	r := difftest.RandomRanking(rng, diffK, diffDomain)
	id, err := empty.Insert(r)
	if err != nil {
		t.Fatalf("insert into empty index: %v", err)
	}
	if id != 5 || empty.K() != diffK {
		t.Fatalf("id=%d K=%d after first insert, want 5/%d", id, empty.K(), diffK)
	}
	res, err := empty.Search(r, 0)
	if err != nil || len(res) != 1 || res[0].ID != 5 {
		t.Fatalf("Search after k adoption: %v %v", res, err)
	}
}

// TestV1SnapshotStillLoads proves backward compatibility: a dense v1
// snapshot (magic, version 1, n, k, then n×k raw items — nothing writes it
// any more) decodes through ReadLegacy and builds an all-live mutable index.
func TestV1SnapshotStillLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := difftest.RandomCollection(rng, 80, diffK, diffDomain)
	le := binary.LittleEndian
	v1 := le.AppendUint32(le.AppendUint32([]byte("KRKT"), 1), uint32(len(rs)))
	v1 = le.AppendUint32(v1, diffK)
	for _, r := range rs {
		for _, it := range r {
			v1 = le.AppendUint32(v1, it)
		}
	}
	slots, err := persist.ReadLegacy(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("ReadLegacy(v1): %v", err)
	}
	idx, err := NewInvertedIndexFromSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	difftest.CheckSearch(t, "v1-snapshot", idx, o, rng, 10, diffDomain)
	difftest.Mutate(t, "v1-snapshot", idx, o, rng, 100, diffDomain)
	difftest.CheckSearch(t, "v1-snapshot+mutate", idx, o, rng, 5, diffDomain)
}

// TestNearestNeighborsAfterMutation checks the KNN surface of the mutable
// kinds after a mutation workload: every returned id must be live, the
// distances must match a linear scan's n best, and the (distance, id) order
// must hold. (Exact id equality is not required on distance ties — the
// rebuilt reference breaks ties in a different id space.)
func TestNearestNeighborsAfterMutation(t *testing.T) {
	for name, build := range mutableBuilders(false) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			base := difftest.RandomCollection(rng, 100, diffK, diffDomain)
			idx, err := build(base)
			if err != nil {
				t.Fatal(err)
			}
			o := difftest.NewOracle(base)
			difftest.Mutate(t, name, idx, o, rng, 300, diffDomain)
			nn, ok := idx.(NearestNeighborSearcher)
			if !ok {
				t.Fatalf("%T is not a NearestNeighborSearcher", idx)
			}
			for trial := 0; trial < 5; trial++ {
				q := difftest.RandomRanking(rng, diffK, diffDomain)
				for _, n := range []int{1, 3, 10, o.Len(), o.Len() + 5} {
					got, err := nn.NearestNeighbors(q, n)
					if err != nil {
						t.Fatalf("NearestNeighbors(%d): %v", n, err)
					}
					wantLen := n
					if wantLen > o.Len() {
						wantLen = o.Len()
					}
					if len(got) != wantLen {
						t.Fatalf("NearestNeighbors(%d) returned %d results, want %d", n, len(got), wantLen)
					}
					want := o.SearchRaw(q, ranking.MaxDistance(diffK)) // all live, id-sorted
					bestDists := make([]int, len(want))
					for i, r := range want {
						bestDists[i] = r.Dist
					}
					// n best distances of the oracle, ascending.
					sortInts(bestDists)
					for i, r := range got {
						if !o.Live(r.ID) {
							t.Fatalf("NearestNeighbors returned dead id %d", r.ID)
						}
						if d := Distance(q, slotAt(o, r.ID)); d != r.Dist {
							t.Fatalf("result %d: reported dist %d, actual %d", i, r.Dist, d)
						}
						if r.Dist != bestDists[i] {
							t.Fatalf("result %d: dist %d, oracle's %d-th best is %d", i, r.Dist, i, bestDists[i])
						}
						if i > 0 && (got[i-1].Dist > r.Dist ||
							(got[i-1].Dist == r.Dist && got[i-1].ID >= r.ID)) {
							t.Fatalf("results out of (dist, id) order at %d: %v", i, got)
						}
					}
				}
			}
		})
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func slotAt(o *difftest.Oracle, id ID) Ranking { return o.Slots()[id] }
