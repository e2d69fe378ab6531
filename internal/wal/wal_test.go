package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"topk/internal/persist"
	"topk/internal/ranking"
)

func rk(items ...ranking.Item) ranking.Ranking { return ranking.Ranking(items) }

// collect replays dir from seq 0 into a slice.
func collect(t *testing.T, dir string, from uint64) ([]Record, ReplayStats) {
	t.Helper()
	var out []Record
	st, err := Replay(dir, from, func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, st
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].ID != b[i].ID || !bytes.Equal(itemBytes(a[i].Ranking), itemBytes(b[i].Ranking)) {
			return false
		}
	}
	return true
}

func itemBytes(r ranking.Ranking) []byte {
	out := make([]byte, 0, 4*len(r))
	for _, it := range r {
		out = append(out, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: OpInsert, ID: 0, Ranking: rk(1, 2, 3)},
		{Op: OpUpdate, ID: 0, Ranking: rk(3, 2, 1)},
		{Op: OpDelete, ID: 0},
		{Op: OpInsert, ID: 1, Ranking: rk(9, 8, 7)},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Appended != 4 || st.SyncedBytes != st.AppendedBytes {
		t.Fatalf("stats after synchronous appends: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rst := collect(t, dir, 0)
	if !sameRecords(got, recs) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", got, recs)
	}
	if rst.TornSegments != 0 {
		t.Fatalf("torn segments on a clean log: %+v", rst)
	}
}

func TestReplayAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for run := 0; run < 3; run++ {
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			r := Record{Op: OpInsert, ID: ranking.ID(len(want)), Ranking: rk(ranking.Item(run), ranking.Item(100+i))}
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, st := collect(t, dir, 0)
	if !sameRecords(got, want) {
		t.Fatalf("replay across restarts: got %d records, want %d", len(got), len(want))
	}
	if st.Segments != 3 {
		t.Fatalf("segments visited = %d, want 3", st.Segments)
	}
}

// TestTornTailDiscarded truncates the active segment at every byte offset
// and checks the replay is always a clean prefix of the appended records.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		r := Record{Op: OpInsert, ID: ranking.ID(i), Ranking: rk(ranking.Item(i), ranking.Item(i+100), ranking.Item(i+200))}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, 1)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ := collect(t, dir, 0)
		if len(got) > len(want) || !sameRecords(got, want[:len(got)]) {
			t.Fatalf("cut=%d: replay is not a prefix (%d records)", cut, len(got))
		}
		if cut == len(full) && len(got) != len(want) {
			t.Fatalf("untruncated replay lost records: %d of %d", len(got), len(want))
		}
	}
}

// TestTornMiddleSegmentStopsThatSegmentOnly mimics a crash in run 1
// followed by a healthy run 2: the torn tail of segment 1 must not hide
// segment 2's acked records.
func TestTornMiddleSegmentStopsThatSegmentOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Record{Op: OpInsert, ID: 0, Ranking: rk(1, 2)}
	if err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpInsert, ID: 1, Ranking: rk(3, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the second record of segment 1: drop the seal frame plus part of
	// the record before it (the kill -9 shape — no orderly Close ran).
	seg := segmentPath(dir, 1)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, full[:len(full)-sealFrameLen-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh run appends to segment 2.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := Record{Op: OpDelete, ID: 0}
	if err := l2.Append(second); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir, 0)
	if !sameRecords(got, []Record{first, second}) {
		t.Fatalf("replay after torn middle segment: %v", got)
	}
	if st.TornSegments != 1 {
		t.Fatalf("TornSegments = %d, want 1", st.TornSegments)
	}
}

// TestSealedSegmentCorruptionFailsLoudly: a decode failure inside a sealed
// segment is rot of synced data, not a torn tail — Replay must refuse to
// continue rather than silently drop acked records.
func TestSealedSegmentCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Op: OpDelete, ID: ranking.ID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil { // seals segment 1
		t.Fatal(err)
	}
	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the record region, keeping the seal.
	data[headerSize+20] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of corrupted sealed segment: %v, want ErrCorrupt", err)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Op: OpInsert, ID: ranking.ID(i), Ranking: rk(ranking.Item(i), ranking.Item(i+10))}); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// The log never parses the footer: any artifact the install func puts
	// at the footer path is the checkpoint.
	state := []byte("state-at-rotation")
	if err := l.Checkpoint(seq, func(d string) error {
		return os.WriteFile(persist.FooterPath(d, seq), state, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the new segment.
	post := Record{Op: OpInsert, ID: 5, Ranking: rk(7, 8)}
	if err := l.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cpSeq, cpPath, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cpSeq != seq {
		t.Fatalf("checkpoint seq = %d, want %d", cpSeq, seq)
	}
	data, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, state) {
		t.Fatalf("checkpoint payload %q, want %q", data, state)
	}
	// Segment 1 must be gone; replay from the checkpoint yields only post.
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("segment 1 survived the checkpoint: %v", err)
	}
	got, _ := collect(t, dir, cpSeq)
	if !sameRecords(got, []Record{post}) {
		t.Fatalf("replay from checkpoint: %v", got)
	}
	st := l.Stats()
	if st.Checkpoints != 1 || st.LastCheckpointUnix == 0 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
}

func TestSyncEveryBatching(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSyncEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Op: OpDelete, ID: ranking.ID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 0 || st.SyncedBytes != 0 {
		t.Fatalf("premature sync at pending=3: %+v", st)
	}
	if err := l.Append(Record{Op: OpDelete, ID: 3}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 || st.SyncedBytes != st.AppendedBytes {
		t.Fatalf("4th append must close the group commit: %+v", st)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSyncEvery(0), WithSyncInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Op: OpDelete, ID: 9}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := l.Stats()
		if st.SyncedBytes == st.AppendedBytes && st.Syncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval flusher never synced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEncodeRejectsBadRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Op: 0, ID: 1}); err == nil {
		t.Fatal("append with invalid op succeeded")
	}
	big := make(ranking.Ranking, 256)
	if err := l.Append(Record{Op: OpInsert, ID: 1, Ranking: big}); err == nil {
		t.Fatal("append with oversized ranking succeeded")
	}
}

func TestReplayNonexistentDirIsEmpty(t *testing.T) {
	st, err := Replay(filepath.Join(t.TempDir(), "nope"), 0, func(Record) error {
		t.Fatal("callback on empty dir")
		return nil
	})
	if err != nil || st.Records != 0 {
		t.Fatalf("Replay on missing dir: %+v, %v", st, err)
	}
	if seq, path, err := LatestCheckpoint(filepath.Join(t.TempDir(), "nope")); err != nil || seq != 0 || path != "" {
		t.Fatalf("LatestCheckpoint on missing dir: %d %q %v", seq, path, err)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Op: OpDelete, ID: ranking.ID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	boom := fmt.Errorf("boom")
	n := 0
	_, err = Replay(dir, 0, func(Record) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if err != boom || n != 2 {
		t.Fatalf("callback error not propagated: n=%d err=%v", n, err)
	}
}
