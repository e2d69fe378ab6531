// Replay: crash recovery over a WAL directory. Recovery is two-phase —
// load the newest checkpoint (LatestCheckpoint), then stream every record
// of the segments at or above its sequence through an apply callback in log
// order (Replay). Torn tails are discarded per segment: each segment is the
// append stream of one process run, so a run that crashed mid-append leaves
// its half-written record at the end of *its* segment, and the next run
// appends to a fresh segment — a decode failure therefore only ever hides
// unacked bytes, never acked records of a later run.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"topk/internal/persist"
)

// ReplayStats reports what a Replay pass recovered.
type ReplayStats struct {
	// Records is the number of records decoded and applied.
	Records int
	// Segments is the number of segment files visited.
	Segments int
	// TornSegments counts segments whose tail was discarded (0 or 1 per
	// crash in normal operation).
	TornSegments int
}

// LatestCheckpoint returns the sequence and footer path
// (checkpoint-<seq>.v3f) of the newest checkpoint in dir, or (0, "") when
// the directory holds none (including when it does not exist yet).
func LatestCheckpoint(dir string) (uint64, string, error) {
	_, cps, err := scan(dir)
	if os.IsNotExist(err) {
		return 0, "", nil
	}
	if err != nil || len(cps) == 0 {
		return 0, "", err
	}
	seq := cps[len(cps)-1]
	return seq, persist.FooterPath(dir, seq), nil
}

// Replay streams every record of the segments with sequence ≥ from through
// fn, in segment then append order. In an unsealed segment — one whose
// writer was killed before Rotate/Close could append the seal marker — a
// record that fails framing or checksum validation ends the segment: the
// remainder is a torn tail of never-acked bytes and is discarded, counted
// in TornSegments. The same failure inside a sealed segment is corruption
// of previously synced data and returns ErrCorrupt: acked records are
// unrecoverable and recovery must not proceed on a silently diverged
// prefix. An error from fn aborts the replay and is returned. Replaying a
// directory that does not exist is an empty replay.
func Replay(dir string, from uint64, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, _, err := scan(dir)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	for _, seq := range segs {
		if seq < from {
			continue
		}
		st.Segments++
		n, torn, err := replaySegment(dir, seq, fn)
		st.Records += n
		if torn {
			st.TornSegments++
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// recStatus is the outcome of decoding one frame.
type recStatus int

const (
	recOK   recStatus = iota // a valid record was decoded
	recEOF                   // the segment ended cleanly on a frame boundary
	recTorn                  // a partial or corrupt frame: discard the rest
	recSeal                  // the end-of-segment marker
)

// sealFrameLen is the on-disk size of a seal frame: the 8-byte prefix plus
// the minimal 7-byte payload.
const sealFrameLen = 8 + 7

// sealedSegment reports whether the file ends with a valid seal frame —
// i.e. its writer shut the segment down in an orderly way, so every byte
// before the seal was synced and a decode failure means rot, not a crash.
func sealedSegment(f *os.File) bool {
	st, err := f.Stat()
	if err != nil || st.Size() < headerSize+sealFrameLen {
		return false
	}
	var buf [sealFrameLen]byte
	if _, err := f.ReadAt(buf[:], st.Size()-sealFrameLen); err != nil {
		return false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != 7 {
		return false
	}
	payload := buf[8:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return false
	}
	return Op(payload[0]) == opSeal
}

// replaySegment decodes one segment file. The returned torn flag reports
// that a trailing portion failed validation and was discarded; fn errors
// abort and propagate.
func replaySegment(dir string, seq uint64, fn func(Record) error) (int, bool, error) {
	f, err := os.Open(segmentPath(dir, seq))
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sealed := sealedSegment(f)
	br := bufio.NewReader(f)

	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// A segment too short for its header: the process crashed between
		// creating the file and flushing the header. Nothing was acked from
		// it.
		return 0, true, nil
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return 0, false, fmt.Errorf("%w: segment %d has wrong magic", ErrCorrupt, seq)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return 0, false, fmt.Errorf("%w: segment %d has unsupported version %d", ErrCorrupt, seq, v)
	}
	if s := binary.LittleEndian.Uint64(hdr[8:]); s != seq {
		return 0, false, fmt.Errorf("%w: segment file %d declares sequence %d", ErrCorrupt, seq, s)
	}

	n := 0
	payload := make([]byte, 0, 512)
	for {
		rec, status := readRecord(br, &payload)
		switch status {
		case recEOF, recSeal:
			return n, false, nil
		case recTorn:
			if sealed {
				return n, false, fmt.Errorf("%w: segment %d is sealed but record %d does not decode (synced data corrupted)",
					ErrCorrupt, seq, n)
			}
			return n, true, nil
		}
		if err := fn(rec); err != nil {
			return n, false, err
		}
		n++
	}
}

// readRecord decodes one frame. Any partial read, implausible length,
// checksum mismatch or undecodable payload is recTorn — from that byte on
// the segment is a torn tail. I/O errors other than EOF also read as torn:
// the bytes are unrecoverable either way.
func readRecord(br *bufio.Reader, scratch *[]byte) (Record, recStatus) {
	var frame [8]byte
	if _, err := io.ReadFull(br, frame[:]); err != nil {
		if err == io.EOF {
			return Record{}, recEOF
		}
		return Record{}, recTorn
	}
	length := binary.LittleEndian.Uint32(frame[0:])
	sum := binary.LittleEndian.Uint32(frame[4:])
	if length == 0 || length > maxPayload {
		return Record{}, recTorn
	}
	if cap(*scratch) < int(length) {
		*scratch = make([]byte, length)
	}
	payload := (*scratch)[:length]
	if _, err := io.ReadFull(br, payload); err != nil {
		return Record{}, recTorn
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return Record{}, recTorn
	}
	if length == 7 && Op(payload[0]) == opSeal {
		return Record{}, recSeal
	}
	rec, err := decode(payload)
	if err != nil {
		return Record{}, recTorn
	}
	return rec, recOK
}
