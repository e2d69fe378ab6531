package server

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/invindex"
	"topk/internal/ranking"
	"topk/internal/shard"
	"topk/internal/wal"
)

// TestApplyReplaysWAL logs a mutation workload acked by the layout older
// servers ran — four shards of invindex.Mutable, inserts extending the last
// shard's id range — and recovers the log through applyRecord onto the one
// index a collection is now, built from the pre-workload collection: the
// replay must hand every insert its logged id and end on the oracle's slots
// and answers, so WAL directories written by a sharded server recover
// unchanged.
func TestApplyReplaysWAL(t *testing.T) {
	cfg := dataset.NYTLike(300, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.Workload(rs, cfg, 30, 0.8, cfg.Seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	live, err := shard.New(rs, 4, func(rs []ranking.Ranking) (shard.Index, error) {
		m, err := invindex.NewMutable(rs, invindex.FilterValidate, 0)
		return m, err
	})
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	domain := difftest.DomainOf(rs)
	o := difftest.NewOracle(rs)
	for op := 0; op < 400; op++ {
		var rec wal.Record
		switch c := rng.Intn(4); {
		case op == 0 || c < 2: // an insert first, for the wrong-base case below
			rec = wal.Record{Op: wal.OpInsert, Ranking: difftest.RandomRanking(rng, 10, domain)}
		case c == 2:
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			rec = wal.Record{Op: wal.OpDelete, ID: ids[rng.Intn(len(ids))]}
		default:
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			rec = wal.Record{Op: wal.OpUpdate, ID: id, Ranking: difftest.Perturb(rng, o.Slots()[id], domain)}
		}
		id := rec.ID
		switch rec.Op {
		case wal.OpInsert:
			id, err = live.Insert(rec.Ranking)
		case wal.OpDelete:
			err = live.Delete(rec.ID)
		default:
			err = live.Update(rec.ID, rec.Ranking)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		switch rec.Op {
		case wal.OpInsert:
			if want := o.Insert(rec.Ranking); id != want {
				t.Fatalf("insert id %d, oracle %d", id, want)
			}
			rec.ID = id
		case wal.OpDelete:
			o.Delete(rec.ID)
		case wal.OpUpdate:
			o.Update(rec.ID, rec.Ranking)
		}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := newIndex(t, rs, "inverted", 0)
	if _, err := recoverWAL(walDir, 0, recovered, io.Discard); err != nil {
		t.Fatalf("replay: %v", err)
	}
	gotSlots, wantSlots := recovered.Slots(), o.Slots()
	if !reflect.DeepEqual(gotSlots, wantSlots) {
		t.Fatalf("replayed slot view diverged: %d vs %d slots", len(gotSlots), len(wantSlots))
	}
	difftest.CheckMatch(t, "replayed-vs-live", recovered, difftest.Sharded{Sharded: live}, qs, difftest.Thetas)
	difftest.CheckSearch(t, "replayed-vs-oracle", recovered, o, rng, 20, domain)

	// A replay onto the wrong base must fail loudly, not diverge silently:
	// the first insert record's id cannot match.
	wrong := newIndex(t, rs[:200], "inverted", 0)
	if _, err := recoverWAL(walDir, 0, wrong, io.Discard); err == nil || !strings.Contains(err.Error(), "wal does not continue this snapshot") {
		t.Fatalf("replay onto a shorter base collection: %v, want the continuity error", err)
	}
}
