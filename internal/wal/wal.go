// Package wal is the durability subsystem of the serving stack: an
// append-only, checksummed, length-prefixed mutation log that makes the
// volatile mutation support of the index kinds (appended slots, tombstones,
// compactions) crash-safe. The paper's structures are all rebuilt from
// the external-id slot array, so a durable slot-array-delta log — one record
// per acked Insert/Delete/Update, keyed by external id — is the only state
// needed to reconstruct any index byte-identically after a crash:
// recovery is "load the latest checkpoint (or the original snapshot), then
// replay the WAL suffix in log order".
//
// Layout: a WAL directory holds numbered segment files and checkpoint
// footers,
//
//	wal-0000000000000001.log      records of segment 1
//	wal-0000000000000002.log      records of segment 2 (sealed by a rotate
//	                              or a restart; the active segment is the
//	                              highest-numbered one)
//	checkpoint-0000000000000002.v3f  collection state before any record of
//	                              segment 2: an incremental-checkpoint
//	                              footer (installed atomically; segments
//	                              and footers below its sequence are
//	                              deleted after it lands) whose pages live
//	                              in the shared page file
//	pages.v3                      shared physical pages of every footer
//	                              (shadow-paged, see persist.Pager); never
//	                              truncated
//
// A checkpoint-<seq>.bin file is the monolithic checkpoint older versions
// wrote. Nothing here reads it, and nothing skips it either — replaying the
// truncated log over a different base would silently diverge — so every
// entry point that lists the directory fails with ErrLegacyCheckpoint until
// the file has been migrated offline.
//
// Each segment starts with a 20-byte header (magic, version, sequence) and
// continues with records framed as
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//	payload: u8 op | u32 external id | u16 k | k × u32 items
//
// A torn tail — a crash mid-append leaves a half-written record at the end
// of the active segment — fails the length or checksum test and is
// discarded by Replay along with everything after it in that segment.
// Segments closed in an orderly way (Rotate, Close) end with a seal frame;
// a decode failure inside a sealed segment is not a torn tail but
// corruption of previously synced data, and Replay reports ErrCorrupt
// instead of silently dropping acked records.
//
// Durability policy is group commit: WithSyncEvery(n) fsyncs after every
// n-th append (n=1 is synchronous commit: every acked mutation is on disk
// before Append returns), WithSyncInterval(d) adds a background flusher so
// relaxed policies bound the loss window by time as well as by count. A
// segment's directory entry is made durable once, when Open or Rotate creates
// it: fsyncing a file does not persist its name (fsync(2)).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"topk/internal/ranking"
	"topk/internal/telemetry"
)

const (
	magic   = 0x544b574c // "TKWL"
	version = 1
	// headerSize is magic u32 + version u32 + sequence u64 + reserved u32.
	headerSize = 20
	// maxPayload bounds a record's declared payload length: 7 framing bytes
	// plus the largest ranking the persist format accepts (k ≤
	// ranking.MaxK). A corrupted length field must not provoke a huge
	// allocation.
	maxPayload = 7 + 4*ranking.MaxK
)

// Op discriminates mutation records.
type Op uint8

const (
	// OpInsert records an acked Insert; ID is the external id the engine
	// assigned, so replay can verify id continuity.
	OpInsert Op = 1
	// OpDelete records an acked Delete of ID.
	OpDelete Op = 2
	// OpUpdate records an acked Update: Ranking replaces the one under ID.
	OpUpdate Op = 3
	// opSeal is the internal end-of-segment marker Rotate and Close append:
	// its presence distinguishes "this segment ended where its writer
	// stopped" from "synced bytes rotted away". Never passed to Replay
	// callbacks.
	opSeal Op = 4
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one logged mutation. Ranking is nil for deletes.
type Record struct {
	Op      Op
	ID      ranking.ID
	Ranking ranking.Ranking
}

// ErrCorrupt is returned when a sealed segment (or a checkpoint reference)
// fails validation — unlike a torn tail in the active segment, which Replay
// discards silently, this means acked records are unrecoverable.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrLegacyCheckpoint is returned, wrapped with the file's path, when a WAL
// directory holds a monolithic checkpoint-<seq>.bin (see the package comment).
var ErrLegacyCheckpoint = errors.New("wal: legacy monolithic checkpoint")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Option configures a Log.
type Option func(*Log)

// WithSyncEvery sets the group-commit batch: fsync after every n-th
// appended record. n=1 (the default) is synchronous commit — Append does
// not return before the record is durable. n=0 disables count-based
// syncing entirely (rely on WithSyncInterval, rotation and Close).
func WithSyncEvery(n int) Option { return func(l *Log) { l.syncEvery = n } }

// WithSyncInterval starts a background flusher that syncs the log at least
// every d. Combines with WithSyncEvery; d=0 (the default) disables it.
func WithSyncInterval(d time.Duration) Option { return func(l *Log) { l.syncInterval = d } }

// Stats is a point-in-time snapshot of the log's durability counters.
type Stats struct {
	// ActiveSegment is the sequence number records are currently appended to.
	ActiveSegment uint64 `json:"activeSegment"`
	// Segments counts segment files on disk (sealed + active).
	Segments int `json:"segments"`
	// Appended counts records appended since Open.
	Appended uint64 `json:"appended"`
	// AppendedBytes counts record bytes appended since Open (excluding
	// segment headers).
	AppendedBytes int64 `json:"appendedBytes"`
	// SyncedBytes counts appended bytes known durable (≤ AppendedBytes; the
	// difference is the loss window of the configured sync policy).
	SyncedBytes int64 `json:"syncedBytes"`
	// Syncs counts fsync calls since Open.
	Syncs uint64 `json:"syncs"`
	// Checkpoints counts checkpoints written since Open.
	Checkpoints uint64 `json:"checkpoints"`
	// LastCheckpointUnix is the wall-clock second of the last checkpoint
	// written by this process, 0 if none.
	LastCheckpointUnix int64 `json:"lastCheckpointUnix,omitempty"`
	// FsyncLatency is the distribution of fsync durations (seconds) since
	// Open — the dominant term of synchronous-commit append latency.
	FsyncLatency telemetry.HistogramSnapshot `json:"fsyncLatency"`
}

// Log is an open WAL directory accepting appends. All methods are safe for
// concurrent use; Append's durability point is governed by the sync policy.
type Log struct {
	dir          string
	syncEvery    int
	syncInterval time.Duration

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seq      uint64
	segments int
	pending  int // appends since the last sync
	closed   bool
	// syncErr latches the first flush/fsync failure. fsync errors are not
	// sticky at the OS level (a later fsync can "succeed" with the data
	// gone), so once one is seen every subsequent Append fails — the server
	// treats that as fatal rather than keep acking mutations it cannot make
	// durable.
	syncErr error

	appended      uint64
	appendedBytes int64
	syncedBytes   int64
	syncs         uint64
	checkpoints   uint64
	lastCp        int64
	fsyncHist     *telemetry.Histogram // fsync duration, seconds

	stopFlush chan struct{}
	flushDone chan struct{}
}

// Open creates (if needed) the WAL directory and starts a fresh segment
// with a sequence one above everything already on disk. Existing segments
// are left untouched — they are the replay source; Open never repairs or
// truncates them, so it is safe to call after Replay.
func Open(dir string, opts ...Option) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, cps, err := scan(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 && segs[n-1]+1 > next {
		next = segs[n-1] + 1
	}
	if n := len(cps); n > 0 && cps[n-1]+1 > next {
		next = cps[n-1] + 1
	}
	l := &Log{
		dir: dir, syncEvery: 1, seq: next, segments: len(segs) + 1,
		// 10µs..~160ms: spans page-cache-only fsyncs through spinning rust.
		fsyncHist: telemetry.NewHistogram(telemetry.ExpBuckets(10e-6, 2, 15)),
	}
	for _, o := range opts {
		o(l)
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if l.syncInterval > 0 {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// Dir returns the WAL directory.
func (l *Log) Dir() string { return l.dir }

// segmentPath names segment seq's file.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// footerPath names checkpoint seq's footer file, whose pages live in the
// shared pages.v3 next to it.
func footerPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.v3f", seq))
}

// scan lists segment and checkpoint-footer sequence numbers present in dir,
// ascending. The shared pages.v3 file is not a sequenced artifact and is
// never listed (and so never truncated). A monolithic .bin checkpoint fails
// the scan: see ErrLegacyCheckpoint.
func scan(dir string) (segs, cps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				segs = append(segs, seq)
			}
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".v3f"):
			if seq, ok := parseSeq(name, "checkpoint-", ".v3f"); ok {
				cps = append(cps, seq)
			}
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".bin"):
			return nil, nil, fmt.Errorf("%w: %s", ErrLegacyCheckpoint, filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(cps, func(i, j int) bool { return cps[i] < cps[j] })
	return segs, cps, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseUint(s, 16, 64)
	return seq, err == nil && seq > 0
}

// openSegmentLocked creates segment seq, writes its header and fsyncs the
// directory. The header is flushed (not fsynced) immediately so a subsequent
// crash leaves a well-formed empty segment rather than a headerless file;
// the directory fsync keeps a crash from dropping the segment, and with it
// every record later acked into it.
func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(segmentPath(l.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.bw, l.seq, l.pending = f, bw, seq, 0
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// encode appends rec's frame (length, CRC, payload) to dst.
func encode(dst []byte, rec Record) ([]byte, error) {
	k := len(rec.Ranking)
	if k > ranking.MaxK {
		return dst, fmt.Errorf("wal: ranking size %d exceeds %d", k, ranking.MaxK)
	}
	if rec.Op != OpInsert && rec.Op != OpDelete && rec.Op != OpUpdate && rec.Op != opSeal {
		return dst, fmt.Errorf("wal: invalid op %d", rec.Op)
	}
	payloadLen := 7 + 4*k
	start := len(dst)
	dst = append(dst, make([]byte, 8+payloadLen)...)
	payload := dst[start+8:]
	payload[0] = byte(rec.Op)
	binary.LittleEndian.PutUint32(payload[1:], rec.ID)
	binary.LittleEndian.PutUint16(payload[5:], uint16(k))
	for i, it := range rec.Ranking {
		binary.LittleEndian.PutUint32(payload[7+4*i:], it)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst, nil
}

// decode parses one payload into a Record.
func decode(payload []byte) (Record, error) {
	if len(payload) < 7 {
		return Record{}, fmt.Errorf("%w: payload %d bytes", ErrCorrupt, len(payload))
	}
	op := Op(payload[0])
	if op != OpInsert && op != OpDelete && op != OpUpdate {
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, payload[0])
	}
	id := binary.LittleEndian.Uint32(payload[1:])
	k := int(binary.LittleEndian.Uint16(payload[5:]))
	if len(payload) != 7+4*k {
		return Record{}, fmt.Errorf("%w: payload %d bytes for k=%d", ErrCorrupt, len(payload), k)
	}
	rec := Record{Op: op, ID: id}
	if k > 0 {
		rec.Ranking = make(ranking.Ranking, k)
		for i := range rec.Ranking {
			rec.Ranking[i] = binary.LittleEndian.Uint32(payload[7+4*i:])
		}
	}
	if op == OpDelete && k != 0 {
		return Record{}, fmt.Errorf("%w: delete record carries a ranking", ErrCorrupt)
	}
	if op != OpDelete && k == 0 {
		return Record{}, fmt.Errorf("%w: %s record without a ranking", ErrCorrupt, op)
	}
	return rec, nil
}

// Append logs one mutation record. It returns once the record is written to
// the active segment and, when the record closes a group-commit batch
// (every syncEvery-th append), fsynced — with the default WithSyncEvery(1)
// every Append is durable before it returns. Callers must serialize
// Appends with the mutations they log so the log order equals the apply
// order; the server does this with one mutation mutex.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.syncErr != nil {
		return fmt.Errorf("wal: log failed a previous sync: %w", l.syncErr)
	}
	frame, err := encode(nil, rec)
	if err != nil {
		return err
	}
	if _, err := l.bw.Write(frame); err != nil {
		return err
	}
	l.appended++
	l.appendedBytes += int64(len(frame))
	l.pending++
	if l.syncEvery > 0 && l.pending >= l.syncEvery {
		return l.syncLocked()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.bw.Flush(); err != nil {
		l.syncErr = err
		return err
	}
	start := time.Now()
	err := l.f.Sync()
	l.fsyncHist.Observe(time.Since(start).Seconds())
	if err != nil {
		l.syncErr = err
		return err
	}
	l.pending = 0
	l.syncs++
	l.syncedBytes = l.appendedBytes
	return nil
}

// flushLoop is the WithSyncInterval background flusher. A failed sync
// latches syncErr, so the next Append — and with it the serving stack's
// fatal handler — surfaces it even under policies that never sync on the
// append path themselves.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.syncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.syncErr == nil && l.syncedBytes < l.appendedBytes {
				l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.stopFlush:
			return
		}
	}
}

// sealLocked writes the end-of-segment marker and syncs, so readers can
// tell this segment's end apart from a crash-torn tail.
func (l *Log) sealLocked() error {
	frame, err := encode(nil, Record{Op: opSeal})
	if err != nil {
		return err
	}
	if _, err := l.bw.Write(frame); err != nil {
		return err
	}
	l.appendedBytes += int64(len(frame))
	return l.syncLocked()
}

// Rotate seals the active segment (seal marker + flush + fsync + close) and
// starts a new one, returning the new segment's sequence number. Records
// appended after Rotate land in the new segment — the checkpoint protocol
// calls Rotate while mutations are blocked, so the returned sequence is an
// exact consistency point: the collection state captured at that instant
// reflects every record below it and none at or above it.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if err := l.sealLocked(); err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return 0, err
	}
	l.segments++
	return l.seq, nil
}

// Checkpoint installs the checkpoint valid at sequence seq (obtained from
// Rotate) and then truncates the log. The install func (persist.Pager.
// WriteCheckpoint in the server) compares every page with the previous
// checkpoint's, writes only those that differ (or no longer match their
// checksum) into the directory's shared pages.v3 and atomically renames the
// checkpoint-<seq>.v3f footer into place; only then are the segments and
// footers below seq removed. A crash at any point leaves either the old
// footer plus all segments, or the new footer (plus possibly
// not-yet-removed old files) — both recover correctly, because Replay starts
// at the newest footer's sequence. pages.v3 itself is never truncated:
// superseded footers' pages return to the pager's free list instead.
func (l *Log) Checkpoint(seq uint64, install func(dir string) error) error {
	if err := install(l.dir); err != nil {
		return err
	}
	return l.truncateBelow(seq)
}

// truncateBelow removes the segments and footers a durable checkpoint at seq
// supersedes, then updates the checkpoint counters.
func (l *Log) truncateBelow(seq uint64) error {
	segs, cps, err := scan(l.dir)
	if err != nil {
		return err
	}
	removed := 0
	for _, s := range segs {
		if s < seq {
			if err := os.Remove(segmentPath(l.dir, s)); err != nil {
				return err
			}
			removed++
		}
	}
	for _, c := range cps {
		if c < seq {
			if err := os.Remove(footerPath(l.dir, c)); err != nil {
				return err
			}
		}
	}
	l.mu.Lock()
	l.segments -= removed
	l.checkpoints++
	l.lastCp = time.Now().Unix()
	l.mu.Unlock()
	return nil
}

// Close seals, flushes and fsyncs the active segment and stops the
// background flusher. The log must not be appended to afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.sealLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	l.mu.Unlock()
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.flushDone
	}
	return err
}

// Stats snapshots the durability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		ActiveSegment:      l.seq,
		Segments:           l.segments,
		Appended:           l.appended,
		AppendedBytes:      l.appendedBytes,
		SyncedBytes:        l.syncedBytes,
		Syncs:              l.syncs,
		Checkpoints:        l.checkpoints,
		LastCheckpointUnix: l.lastCp,
		FsyncLatency:       l.fsyncHist.Snapshot(),
	}
}
