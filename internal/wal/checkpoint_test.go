package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topk/internal/persist"
	"topk/internal/ranking"
)

// TestCheckpointLifecycle drives the checkpoint flow the server uses:
// append → rotate → Checkpoint(install) → recovery sees the .v3f footer as
// the latest checkpoint and only the suffix segments remain.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	slots := []ranking.Ranking{{1, 2, 3}, nil, {3, 2, 1}}
	for id, r := range slots {
		if r == nil {
			continue
		}
		if err := l.Append(Record{Op: OpInsert, ID: ranking.ID(id), Ranking: r}); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	p := persist.NewPager(dir, nil)
	if err := l.Checkpoint(seq, func(d string) error {
		_, werr := p.WriteCheckpoint(seq, slots)
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpDelete, ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	gotSeq, cpPath, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || !strings.HasSuffix(cpPath, persist.FooterSuffix) {
		t.Fatalf("LatestCheckpoint = (%d, %s), want seq %d and a %s footer", gotSeq, cpPath, seq, persist.FooterSuffix)
	}
	pc, _, err := persist.OpenPagedDir(dir, cpPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Slots()) != 3 || pc.Slots()[1] != nil || !pc.Slots()[0].Equal(slots[0]) {
		t.Fatalf("recovered slots %v do not match checkpoint", pc.Slots())
	}
	// Replaying from the checkpoint returns only the post-checkpoint suffix.
	var suffix []Record
	if _, err := Replay(dir, seq, func(rec Record) error {
		suffix = append(suffix, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(suffix) != 1 || suffix[0].Op != OpDelete || suffix[0].ID != 0 {
		t.Fatalf("post-checkpoint suffix = %+v, want the one delete", suffix)
	}
}

// TestCheckpointTruncation: a second checkpoint deletes the superseded .v3f
// footer but never the shared pages.v3 file.
func TestCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := persist.NewPager(dir, nil)
	state := []ranking.Ranking{{1, 2, 3}}
	for i := 0; i < 2; i++ {
		if err := l.Append(Record{Op: OpInsert, ID: ranking.ID(i), Ranking: ranking.Ranking{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		seq, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			state = append(state, ranking.Ranking{1, 2, 3})
		}
		if err := l.Checkpoint(seq, func(string) error {
			_, werr := p.WriteCheckpoint(seq, state)
			return werr
		}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	footers, pages := 0, false
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), persist.FooterSuffix) {
			footers++
		}
		if e.Name() == persist.DataFileName {
			pages = true
		}
	}
	if footers != 1 {
		t.Fatalf("%d footers survive two checkpoints, want 1", footers)
	}
	if !pages {
		t.Fatal("truncation removed the shared pages.v3 file")
	}
}

// TestCheckpointInstallFailure: when the install func fails, no footer
// lands, segments are not truncated, and recovery still replays everything.
func TestCheckpointInstallFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Op: OpInsert, ID: 0, Ranking: ranking.Ranking{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("install failed")
	if err := l.Checkpoint(seq, func(string) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint swallowed the install error: %v", err)
	}
	if _, cpPath, _ := LatestCheckpoint(dir); cpPath != "" {
		t.Fatalf("failed install left a checkpoint artifact: %s", cpPath)
	}
	n := 0
	if _, err := Replay(dir, 0, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replay after failed checkpoint saw %d records, want 1", n)
	}
}

// TestLatestCheckpointPrefersNewerSeq: a crash between a footer's install
// and the truncation of its predecessor leaves two footers; the newest
// sequence wins.
func TestLatestCheckpointPrefersNewerSeq(t *testing.T) {
	dir := t.TempDir()
	p := persist.NewPager(dir, nil)
	for seq, r := range []ranking.Ranking{{9, 8, 7}, {1, 2, 3}} {
		if _, err := p.WriteCheckpoint(uint64(seq+1), []ranking.Ranking{r}); err != nil {
			t.Fatal(err)
		}
	}
	seq, cpPath, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || cpPath != persist.FooterPath(dir, 2) {
		t.Fatalf("LatestCheckpoint = (%d, %s), want the seq-2 footer", seq, cpPath)
	}
}

// TestLegacyBinCheckpointFailsLoudly: a monolithic checkpoint-<seq>.bin in
// the directory — even beside a newer footer and intact segments — fails
// every entry point that would otherwise recover around it, naming the file.
func TestLegacyBinCheckpointFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpInsert, ID: 0, Ranking: ranking.Ranking{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.NewPager(dir, nil).WriteCheckpoint(2, []ranking.Ranking{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "checkpoint-0000000000000001.bin")
	if err := os.WriteFile(bin, []byte("KRKT"), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLegacyCheckpoint) || !strings.Contains(err.Error(), bin) {
			t.Fatalf("%s: %v, want ErrLegacyCheckpoint naming %s", what, err, bin)
		}
	}
	_, _, err = LatestCheckpoint(dir)
	check("LatestCheckpoint", err)
	replayed := 0
	_, err = Replay(dir, 0, func(Record) error { replayed++; return nil })
	check("Replay", err)
	if replayed != 0 {
		t.Fatalf("Replay delivered %d records before failing", replayed)
	}
	_, err = Open(dir)
	check("Open", err)
}
