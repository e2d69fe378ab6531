package topk

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
)

// TestHybridSpillDifferential: an index whose epoch arena is spilled to an
// mmapped paged file must answer every query byte-identically to a heap
// index and to the oracle, across mutations and the epoch rebuilds they
// trigger.
func TestHybridSpillDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rs := difftest.RandomCollection(rng, 800, 10, 400)
	o := difftest.NewOracle(rs)
	spilled := hybridFor(t, rs, WithHybridSpill(t.TempDir()))
	heap := hybridFor(t, rs)

	if spilled.SpillBytes() == 0 {
		t.Fatal("spill-enabled index reports 0 spill bytes")
	}
	if heap.SpillBytes() != 0 {
		t.Fatalf("heap index reports %d spill bytes", heap.SpillBytes())
	}

	difftest.CheckSearch(t, "hybrid(spilled)", spilled, o, rng, 40, 400)

	// Mutate both indexes identically; force enough churn for a rebuild, so
	// the next epoch spills again over the new live set.
	for i := 0; i < 400; i++ {
		switch c := rng.Intn(4); {
		case c < 2:
			r := difftest.RandomRanking(rng, o.K(), 400)
			id1, err1 := spilled.Insert(r)
			id2, err2 := heap.Insert(r)
			if err1 != nil || err2 != nil || id1 != id2 {
				t.Fatalf("insert diverged: (%v,%v) (%v,%v)", id1, err1, id2, err2)
			}
			o.Insert(r)
		case c == 2:
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if err1, err2 := spilled.Delete(id), heap.Delete(id); err1 != nil || err2 != nil {
				t.Fatalf("delete diverged: %v %v", err1, err2)
			}
			o.Delete(id)
		default:
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			r := difftest.Perturb(rng, o.Slots()[id], 400)
			if err1, err2 := spilled.Update(id, r), heap.Update(id, r); err1 != nil || err2 != nil {
				t.Fatalf("update diverged: %v %v", err1, err2)
			}
			o.Update(id, r)
		}
	}
	if err := spilled.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := heap.Compact(); err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "hybrid(spilled,post-mutation)", spilled, o, rng, 40, 400)
	if spilled.Rebuilds() == 0 {
		t.Fatal("mutation burst triggered no epoch rebuild; the spill path was not re-exercised")
	}
	if spilled.SpillBytes() == 0 {
		t.Fatal("rebuilt epoch lost its spill backing")
	}
	if n, err := spilled.SpillFallbacks(); n != 0 || err != nil {
		t.Fatalf("working spill directory reports %d fallbacks (%v)", n, err)
	}
}

// TestHybridSpillBadDirFallsBack: an unusable spill directory must not fail
// index construction — the epoch stays on the heap, and every epoch that did
// so is counted with the first error kept.
func TestHybridSpillBadDirFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rs := difftest.RandomCollection(rng, 100, 8, 100)
	h := hybridFor(t, rs, WithHybridSpill("/nonexistent/spill/dir"))
	if h.SpillBytes() != 0 {
		t.Fatalf("spill into a missing directory reports %d bytes", h.SpillBytes())
	}
	if n, err := h.SpillFallbacks(); n != 1 || err == nil {
		t.Fatalf("construction fallback not counted: n=%d err=%v", n, err)
	}
	o := difftest.NewOracle(rs)
	difftest.CheckSearch(t, "hybrid(spill-fallback)", h, o, rng, 15, 100)
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.SpillFallbacks(); n != 2 {
		t.Fatalf("rebuilt epoch's fallback not counted: n=%d", n)
	}
}
