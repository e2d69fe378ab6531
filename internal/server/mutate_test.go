package server

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/wal"
)

// TestApplyReplaysWAL logs a mutation workload under the ids the oracle
// assigns and recovers the log through applyRecord onto a collection's
// index built from the pre-workload collection: the replay must hand every
// insert its logged id and end on the oracle's slots and answers.
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
			rk := difftest.RandomRanking(rng, 10, domain)
			rec = wal.Record{Op: wal.OpInsert, ID: o.Insert(rk), Ranking: rk}
		case c == 2:
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			rec = wal.Record{Op: wal.OpDelete, ID: ids[rng.Intn(len(ids))]}
			o.Delete(rec.ID)
		default:
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			rec = wal.Record{Op: wal.OpUpdate, ID: id, Ranking: difftest.Perturb(rng, o.Slots()[id], domain)}
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
	difftest.CheckMatch(t, "replayed-vs-rebuilt", recovered, newIndex(t, wantSlots, "inverted", 0), qs, difftest.Thetas)
	difftest.CheckSearch(t, "replayed-vs-oracle", recovered, o, rng, 20, domain)

	// A replay onto the wrong base must fail loudly, not diverge silently:
	// the first insert record's id cannot match.
	wrong := newIndex(t, rs[:200], "inverted", 0)
	if _, err := recoverWAL(walDir, 0, wrong, io.Discard); err == nil || !strings.Contains(err.Error(), "wal does not continue this snapshot") {
		t.Fatalf("replay onto a shorter base collection: %v, want the continuity error", err)
	}
}
