package topk

import (
	"math/rand"
	"slices"
	"testing"

	"topk/internal/difftest"
	"topk/internal/invindex"
)

func TestInvertedIndexInsert(t *testing.T) {
	rs := testCollection(t, 400)
	grow := testCollection(t, 500)[400:] // extra rankings from the same family
	idx, err := NewInvertedIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]Ranking{}, rs...)
	for _, r := range grow {
		id, err := idx.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != len(all) {
			t.Fatalf("insert id %d, want %d", id, len(all))
		}
		all = append(all, r)
	}
	if idx.Len() != len(all) {
		t.Fatalf("Len=%d want %d", idx.Len(), len(all))
	}
	checkIndexAgainstBrute(t, idx, all, "InvertedIndex+Insert")
	// Errors.
	if _, err := idx.Insert(Ranking{1, 2}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := idx.Insert(Ranking{1, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err == nil {
		t.Fatal("duplicate items accepted")
	}
}

// TestMutationsCopyCallerSlice reuses one buffer for an Insert and an Update,
// as a request decoder may, then overwrites it: the index must have copied
// each payload, so its answers and its slots still match the oracle's.
func TestMutationsCopyCallerSlice(t *testing.T) {
	type slotIndex interface {
		MutableIndex
		NearestNeighborSearcher
		Slots() []Ranking
	}
	for _, tc := range []struct {
		name  string
		build func([]Ranking) (slotIndex, error)
	}{
		{"inverted", func(rs []Ranking) (slotIndex, error) { return NewInvertedIndex(rs) }},
		{"hybrid", func(rs []Ranking) (slotIndex, error) { return NewHybridIndex(rs) }},
		{"invindex.Mutable", func(rs []Ranking) (slotIndex, error) {
			return invindex.NewMutable(rs, 0, invindex.FilterValidateDrop, invindex.DefaultCompactionRatio)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k, domain = 8, 150
			rng := rand.New(rand.NewSource(35))
			rs := difftest.RandomCollection(rng, 200, k, domain)
			idx, err := tc.build(rs)
			if err != nil {
				t.Fatal(err)
			}
			o := difftest.NewOracle(rs)
			ins, upd, junk := difftest.RandomRanking(rng, k, domain), difftest.RandomRanking(rng, k, domain), difftest.RandomRanking(rng, k, domain)

			buf := slices.Clone(ins)
			if _, err := idx.Insert(buf); err != nil {
				t.Fatal(err)
			}
			o.Insert(ins)
			copy(buf, upd)
			if err := idx.Update(3, buf); err != nil {
				t.Fatal(err)
			}
			o.Update(3, upd)
			copy(buf, junk)

			for _, q := range []Ranking{ins, upd, junk, rs[0]} {
				for _, theta := range difftest.Thetas {
					got, err := idx.Search(q, theta)
					if err != nil {
						t.Fatal(err)
					}
					if want, _ := o.Search(q, theta); !difftest.Equal(got, want) {
						t.Fatalf("Search(%v, %g) = %v, want %v", q, theta, got, want)
					}
				}
				for _, n := range []int{1, 5, 20} {
					got, err := idx.NearestNeighbors(q, n)
					if err != nil {
						t.Fatal(err)
					}
					if want := o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
						t.Fatalf("NearestNeighbors(%v, %d) = %v, want %v", q, n, got, want)
					}
				}
			}
			if got, want := idx.Slots(), o.Slots(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("Slots() = %v, want %v", got, want)
			}
		})
	}
}
