package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
	"topk/internal/wal"
)

// TestApplyReplaysWAL runs a mutation workload against a sharded index
// while logging every acked op as a WAL record, then replays the records
// onto a second sharded index built from the pre-workload collection: the
// two must end byte-identical — same slot views, same answers — proving
// per-shard replay routing preserves shard ownership of extended id
// ranges.
func TestApplyReplaysWAL(t *testing.T) {
	rs, qs := testCollection(t, 300, 10)
	live, err := shard.New(rs, 4, invertedBuilder)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	domain := difftest.DomainOf(rs)
	o := difftest.NewOracle(rs)
	var log []wal.Record
	for op := 0; op < 400; op++ {
		switch c := rng.Intn(4); {
		case c < 2:
			r := difftest.RandomRanking(rng, 10, domain)
			id, err := live.Insert(r)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			if want := o.Insert(r); id != want {
				t.Fatalf("insert id %d, oracle %d", id, want)
			}
			log = append(log, wal.Record{Op: wal.OpInsert, ID: id, Ranking: r})
		case c == 2:
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if err := live.Delete(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			o.Delete(id)
			log = append(log, wal.Record{Op: wal.OpDelete, ID: id})
		default:
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			r := difftest.Perturb(rng, o.Slots()[id], domain)
			if err := live.Update(id, r); err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
			o.Update(id, r)
			log = append(log, wal.Record{Op: wal.OpUpdate, ID: id, Ranking: r})
		}
	}

	recovered, err := shard.New(rs, 4, invertedBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(recovered, log); err != nil {
		t.Fatalf("replay: %v", err)
	}
	gotSlots, wantSlots := recovered.Slots(), live.Slots()
	if !reflect.DeepEqual(gotSlots, wantSlots) {
		t.Fatalf("replayed slot view diverged: %d vs %d slots", len(gotSlots), len(wantSlots))
	}
	difftest.CheckMatch(t, "replayed-vs-live", difftest.Sharded{Sharded: recovered}, difftest.Sharded{Sharded: live}, qs, difftest.Thetas)
	difftest.CheckSearch(t, "replayed-vs-oracle", difftest.Sharded{Sharded: recovered}, o, rng, 20, domain)

	// A replay onto the wrong base must fail loudly, not diverge silently:
	// the first insert record's id cannot match.
	wrong, err := shard.New(rs[:200], 4, invertedBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(wrong, log); err == nil {
		t.Fatal("replay onto a shorter base collection succeeded")
	}
}

// replay applies a recovered record stream in order, as server recovery does.
func replay(sh *shard.Sharded, recs []wal.Record) error {
	for i, rec := range recs {
		if err := sh.Apply(rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

// TestSlotsConsistentCut drives delete-then-insert pairs against a
// concurrent Slots reader: in every snapshot, if the later insert of a
// pair is visible the earlier delete must be too. The un-quiesced shard
// walk could capture shard 0 before the delete and the last shard after
// the insert — a state that never existed.
func TestSlotsConsistentCut(t *testing.T) {
	rs, _ := testCollection(t, 200, 8)
	sh, err := shard.New(rs, 4, invertedBuilder)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ deleted, inserted ranking.ID }
	var (
		mu    sync.Mutex
		pairs []pair
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		// Delete ids from shard 0's initial range (0..49), then insert —
		// inserts always extend the last shard.
		for del := ranking.ID(0); del < 50; del++ {
			if err := sh.Delete(del); err != nil {
				t.Errorf("delete %d: %v", del, err)
				return
			}
			r := difftest.RandomRanking(rng, 8, difftest.DomainOf(rs))
			ins, err := sh.Insert(r)
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			mu.Lock()
			pairs = append(pairs, pair{deleted: del, inserted: ins})
			mu.Unlock()
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		mu.Lock()
		known := append([]pair(nil), pairs...)
		mu.Unlock()
		slots := sh.Slots()
		for _, p := range known {
			insertVisible := int(p.inserted) < len(slots) && slots[p.inserted] != nil
			deleteVisible := int(p.deleted) >= len(slots) || slots[p.deleted] == nil
			if insertVisible && !deleteVisible {
				t.Fatalf("torn snapshot: insert %d visible but earlier delete %d is not", p.inserted, p.deleted)
			}
		}
	}
}
