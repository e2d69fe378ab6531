package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
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

// TestMutationRejectedByTheIndexAnswers400 drives mutate with records the
// index rejects. The handler checks only that a ranking is present, so
// every such record reaches the index: one of another size than a
// collection an insert sized after the request was read, one with a
// repeated item, and a first insert of 300 items into a collection without
// a size. Each must answer 400 bad_request and leave the collection, its
// cache generation and its log as they were.
func TestMutationRejectedByTheIndexAnswers400(t *testing.T) {
	s := newRegistryServer(t, t.TempDir())
	h := s.Handler()
	for _, name := range []string{"sized", "unsized"} {
		if rec := doJSON(t, h, http.MethodPut, "/collections/"+name, nil); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
		}
	}
	if rec := post(t, h, "/c/sized/insert", fmt.Sprintf(`{"ranking":%s}`, seqRanking(10, 1))); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}
	seq := func(k, start int) ranking.Ranking {
		r := make(ranking.Ranking, k)
		for i := range r {
			r[i] = ranking.Item(start + i)
		}
		return r
	}
	for _, tc := range []struct {
		name, coll, verb string
		rec              wal.Record
	}{
		{"size mismatch", "sized", "insert", wal.Record{Op: wal.OpInsert, Ranking: seq(5, 1)}},
		{"size mismatch on update", "sized", "update", wal.Record{Op: wal.OpUpdate, ID: 0, Ranking: seq(5, 1)}},
		{"repeated item", "sized", "insert", wal.Record{Op: wal.OpInsert, Ranking: append(seq(9, 1), 1)}},
		{"repeated item, unsized", "unsized", "insert", wal.Record{Op: wal.OpInsert, Ranking: ranking.Ranking{4, 4}}},
		{"300 items, unsized", "unsized", "insert", wal.Record{Op: wal.OpInsert, Ranking: seq(300, 1)}},
	} {
		c, ok := s.lookup(tc.coll)
		if !ok {
			t.Fatalf("%s: no collection %q", tc.name, tc.coll)
		}
		n, k, gen, logged := c.idx.Len(), c.idx.K(), c.generation(), c.wal.Stats().Appended
		rec := httptest.NewRecorder()
		mutate(c, rec, tc.verb, tc.rec)
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("%s: %d %s, want 400 bad_request", tc.name, rec.Code, rec.Body)
		}
		if c.idx.Len() != n || c.idx.K() != k || c.generation() != gen || c.wal.Stats().Appended != logged {
			t.Errorf("%s: the rejected %s changed the collection: n %d→%d, k %d→%d, generation %d→%d, logged %d→%d",
				tc.name, tc.verb, n, c.idx.Len(), k, c.idx.K(), gen, c.generation(), logged, c.wal.Stats().Appended)
		}
	}
}
