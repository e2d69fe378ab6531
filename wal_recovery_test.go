package topk_test

// Crash-simulation differential: the durability contract of internal/wal is
// that recovery — base snapshot + WAL prefix — reconstructs a collection
// byte-identical to what the acked mutations built, for every mutable index
// kind. The test runs a 1k-op mutation workload that logs each acked op,
// hard-stops the stream by truncating the log at arbitrary byte offsets
// (including mid-record), recovers, and checks the recovered collection
// against a linear-scan oracle replayed over exactly the surviving prefix:
// identical slot arrays (and identical snapshot bytes), identical search
// answers. Torn tail records must disappear cleanly — never a panic, never
// a phantom record, never a lost acked one above the cut.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"topk"
	"topk/internal/difftest"
	"topk/internal/persist"
	"topk/internal/ranking"
	"topk/internal/wal"
)

// recoveryKinds maps each mutable kind to its from-slots constructor.
var recoveryKinds = map[string]func(slots []ranking.Ranking) (difftest.Mutable, error){
	"inverted": func(slots []ranking.Ranking) (difftest.Mutable, error) {
		idx, err := topk.NewInvertedIndexFromSlots(slots)
		return idx, err
	},
	"hybrid": func(slots []ranking.Ranking) (difftest.Mutable, error) {
		idx, err := topk.NewHybridIndexFromSlots(slots)
		return idx, err
	},
}

// applyRecord replays one WAL record onto a recovered index, enforcing the
// insert-id continuity the server's replay also checks.
func applyRecord(idx difftest.Mutable, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		id, err := idx.Insert(rec.Ranking)
		if err != nil {
			return err
		}
		if id != rec.ID {
			return errIDMismatch(id, rec.ID)
		}
		return nil
	case wal.OpDelete:
		return idx.Delete(rec.ID)
	default:
		return idx.Update(rec.ID, rec.Ranking)
	}
}

type idMismatch struct{ got, want ranking.ID }

func errIDMismatch(got, want ranking.ID) error { return idMismatch{got, want} }
func (e idMismatch) Error() string             { return "replayed insert id diverged" }

// logWorkload drives ops acked mutations against idx, logging each to the
// WAL and returning the acked record sequence.
func logWorkload(t *testing.T, idx difftest.Mutable, l *wal.Log, base []ranking.Ranking, ops int, rng *rand.Rand) []wal.Record {
	t.Helper()
	o := difftest.NewOracle(base)
	domain := difftest.DomainOf(base)
	var acked []wal.Record
	for i := 0; i < ops; i++ {
		var rec wal.Record
		switch c := rng.Intn(4); {
		case c < 2:
			r := difftest.RandomRanking(rng, o.K(), domain)
			id, err := idx.Insert(r)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			if want := o.Insert(r); id != want {
				t.Fatalf("insert id %d, oracle %d", id, want)
			}
			rec = wal.Record{Op: wal.OpInsert, ID: id, Ranking: r}
		case c == 2:
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if err := idx.Delete(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			o.Delete(id)
			rec = wal.Record{Op: wal.OpDelete, ID: id}
		default:
			ids := o.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			r := difftest.Perturb(rng, o.Slots()[id], domain)
			if err := idx.Update(id, r); err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
			o.Update(id, r)
			rec = wal.Record{Op: wal.OpUpdate, ID: id, Ranking: r}
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("wal append: %v", err)
		}
		acked = append(acked, rec)
	}
	return acked
}

// snapshotBytes serializes a slot view; byte equality of two snapshots is
// the "byte-identical collection" criterion.
func snapshotBytes(t *testing.T, slots []ranking.Ranking) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := persist.WritePagedTo(&buf, slots); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCrashRecoveryDifferential(t *testing.T) {
	for name, build := range recoveryKinds {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			base := difftest.RandomCollection(rng, 150, 8, 100)

			walDir := filepath.Join(t.TempDir(), "wal")
			l, err := wal.Open(walDir)
			if err != nil {
				t.Fatal(err)
			}
			live, err := build(append([]ranking.Ranking(nil), base...))
			if err != nil {
				t.Fatal(err)
			}
			acked := logWorkload(t, live, l, base, 1000, rng)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			seg := filepath.Join(walDir, "wal-0000000000000001.log")
			full, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Hard-stop points: clean end, shaved tails (mid-record), a cut
			// inside the header region, and random offsets.
			cuts := []int{len(full), len(full) - 1, len(full) - 9, len(full) / 2, 13, 0}
			for i := 0; i < 6; i++ {
				cuts = append(cuts, rng.Intn(len(full)+1))
			}
			for _, cut := range cuts {
				if cut < 0 || cut > len(full) {
					continue
				}
				if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				var recovered []wal.Record
				if _, err := wal.Replay(walDir, 0, func(r wal.Record) error {
					recovered = append(recovered, r)
					return nil
				}); err != nil {
					t.Fatalf("cut=%d: replay: %v", cut, err)
				}
				if len(recovered) > len(acked) {
					t.Fatalf("cut=%d: replay fabricated %d records", cut, len(recovered)-len(acked))
				}

				// Recover: fresh index from the base snapshot + the surviving
				// prefix; oracle over the same prefix.
				idx, err := build(append([]ranking.Ranking(nil), base...))
				if err != nil {
					t.Fatal(err)
				}
				o := difftest.NewOracle(base)
				for ri, rec := range recovered {
					if err := applyRecord(idx, rec); err != nil {
						t.Fatalf("cut=%d: apply record %d: %v", cut, ri, err)
					}
					switch rec.Op {
					case wal.OpInsert:
						if got := o.Insert(rec.Ranking); got != rec.ID {
							t.Fatalf("cut=%d: oracle insert id %d, record says %d", cut, got, rec.ID)
						}
					case wal.OpDelete:
						if err := o.Delete(rec.ID); err != nil {
							t.Fatalf("cut=%d: oracle delete: %v", cut, err)
						}
					default:
						if err := o.Update(rec.ID, rec.Ranking); err != nil {
							t.Fatalf("cut=%d: oracle update: %v", cut, err)
						}
					}
				}

				slotter, ok := idx.(interface{ Slots() []ranking.Ranking })
				if !ok {
					t.Fatalf("kind exposes no slot view")
				}
				slots := slotter.Slots()
				if !bytes.Equal(snapshotBytes(t, slots), snapshotBytes(t, o.Slots())) {
					t.Fatalf("cut=%d: recovered collection is not byte-identical to the oracle (%d records replayed)",
						cut, len(recovered))
				}
				difftest.CheckSearch(t, name, idx, o, rng, 6, difftest.DomainOf(base))
			}
		})
	}
}
