// Package persist provides binary (de)serialization for ranking
// collections, using only the standard library: a downstream user can
// snapshot a collection — with its external-id slot assignment — to disk and
// reload it. Index structures are not serialized; every index is rebuilt
// from the reloaded collection.
//
// Format: little-endian, length-prefixed sections with a magic header per
// artifact kind. The format is versioned; readers reject unknown versions.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"topk/internal/ranking"
)

const (
	magicRankings = 0x544b524b // "TKRK"
	version       = 1
	// versionV2 is the mutable-collection snapshot: an external-id slot
	// array where each slot is either a live ranking or a tombstone, so a
	// reloaded index preserves the id assignment of the one that was saved
	// (deleted ids stay retired, the next insert continues the sequence).
	versionV2 = 2
)

// ErrBadFormat is returned when the input does not match the expected
// artifact layout.
var ErrBadFormat = errors.New("persist: bad format")

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeHeader(w io.Writer, magic uint32) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	_, err := w.Write(buf[:])
	return err
}

func readHeader(r io.Reader, magic uint32) error {
	v, err := readVersionedHeader(r, magic)
	if err != nil {
		return err
	}
	if v != version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	return nil
}

// readVersionedHeader checks the magic and returns the artifact version,
// accepting any version a reader in this package knows how to decode.
func readVersionedHeader(r io.Reader, magic uint32) (uint32, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic {
		return 0, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	v := binary.LittleEndian.Uint32(buf[4:])
	if v != version && v != versionV2 {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	return v, nil
}

func writeHeaderV2(w io.Writer, magic uint32) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], versionV2)
	_, err := w.Write(buf[:])
	return err
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// WriteRankings serializes a collection of same-size rankings and returns
// the number of bytes written.
func WriteRankings(w io.Writer, rs []ranking.Ranking) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if err := writeHeader(bw, magicRankings); err != nil {
		return cw.n, err
	}
	k := 0
	if len(rs) > 0 {
		k = rs[0].K()
	}
	if err := writeU32(bw, uint32(len(rs))); err != nil {
		return cw.n, err
	}
	if err := writeU32(bw, uint32(k)); err != nil {
		return cw.n, err
	}
	for id, r := range rs {
		if r.K() != k {
			return cw.n, fmt.Errorf("persist: ranking %d has size %d, want %d: %w",
				id, r.K(), k, ranking.ErrSizeMismatch)
		}
		for _, it := range r {
			if err := writeU32(bw, it); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadRankings deserializes a collection written by WriteRankings (v1).
// Snapshots that may carry tombstones (v2) are read with ReadCollection.
func ReadRankings(r io.Reader) ([]ranking.Ranking, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, magicRankings); err != nil {
		return nil, err
	}
	return readRankingsBody(br)
}

// readCollectionPrefix decodes the (n, k) pair that both payload versions
// start with, bounds-checking k.
func readCollectionPrefix(br *bufio.Reader) (n, k uint32, err error) {
	if n, err = readU32(br); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if k, err = readU32(br); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if k > 255 {
		return 0, 0, fmt.Errorf("%w: implausible k=%d", ErrBadFormat, k)
	}
	return n, k, nil
}

// readRankingsBody decodes the v1 payload after the header: n, k, then n
// dense rankings of k items each.
func readRankingsBody(br *bufio.Reader) ([]ranking.Ranking, error) {
	n, k, err := readCollectionPrefix(br)
	if err != nil {
		return nil, err
	}
	// Grow incrementally instead of trusting n: a corrupted header must not
	// provoke a huge up-front allocation (stream readers cannot check n
	// against a file size; ReadCollectionFile can, and does).
	return readDenseBody(br, n, k, boundedCap(n))
}

// readDenseBody decodes n dense k-item rankings (the v1 payload after its
// n,k prefix). capHint bounds the up-front allocation.
func readDenseBody(br *bufio.Reader, n, k uint32, capHint int) ([]ranking.Ranking, error) {
	rs := make([]ranking.Ranking, 0, capHint)
	for i := uint32(0); i < n; i++ {
		rr, err := readRanking(br, k, int(i))
		if err != nil {
			return nil, err
		}
		rs = append(rs, rr)
	}
	return rs, nil
}

// readSlotsBody decodes n flagged slots (the v2 payload after its n,k
// prefix): flag byte 0 is a tombstone, 1 a live k-item ranking.
func readSlotsBody(br *bufio.Reader, n, k uint32, capHint int) ([]ranking.Ranking, error) {
	slots := make([]ranking.Ranking, 0, capHint)
	for i := uint32(0); i < n; i++ {
		flag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated slot %d: %v", ErrBadFormat, i, err)
		}
		switch flag {
		case 0:
			slots = append(slots, nil)
		case 1:
			rr, err := readRanking(br, k, int(i))
			if err != nil {
				return nil, err
			}
			slots = append(slots, rr)
		default:
			return nil, fmt.Errorf("%w: slot %d has flag %d", ErrBadFormat, i, flag)
		}
	}
	return slots, nil
}

// boundedCap limits speculative slice preallocation for length fields read
// from untrusted input.
func boundedCap(n uint32) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return int(n)
}

func readRanking(br *bufio.Reader, k uint32, i int) (ranking.Ranking, error) {
	rr := make(ranking.Ranking, k)
	for j := range rr {
		v, err := readU32(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated ranking %d: %v", ErrBadFormat, i, err)
		}
		rr[j] = v
	}
	if err := rr.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return rr, nil
}

// WriteCollection serializes the external-id slot view of a mutable
// collection as snapshot v2: slots[id] is the live ranking under id, nil a
// tombstoned id. Reloading through ReadCollection preserves the id
// assignment exactly — live rankings keep their ids, deleted ids stay
// retired (including trailing tombstones: the slot count, not the last
// live slot, delimits the id space, so the next insert continues the
// sequence). The hybrid engine's mid-epoch state — base region, delta
// overlay and tombstones — flattens into exactly this slot view, so a
// snapshot taken between epoch rebuilds reloads as a freshly folded index.
// Returns the number of bytes written.
func WriteCollection(w io.Writer, slots []ranking.Ranking) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if err := writeHeaderV2(bw, magicRankings); err != nil {
		return cw.n, err
	}
	k := -1
	for _, r := range slots {
		if r != nil {
			k = r.K()
			break
		}
	}
	if k < 0 {
		k = 0
	}
	if err := writeU32(bw, uint32(len(slots))); err != nil {
		return cw.n, err
	}
	if err := writeU32(bw, uint32(k)); err != nil {
		return cw.n, err
	}
	for id, r := range slots {
		if r == nil {
			if err := bw.WriteByte(0); err != nil {
				return cw.n, err
			}
			continue
		}
		if r.K() != k {
			return cw.n, fmt.Errorf("persist: slot %d has size %d, want %d: %w",
				id, r.K(), k, ranking.ErrSizeMismatch)
		}
		if err := bw.WriteByte(1); err != nil {
			return cw.n, err
		}
		for _, it := range r {
			if err := writeU32(bw, it); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadCollection deserializes a ranking-collection snapshot of any
// version: a dense v1 collection (WriteRankings) loads as an all-live slot
// array, a v2 snapshot (WriteCollection) restores tombstones as nil slots,
// and a paged v3 snapshot (WritePagedTo) is read whole with every page
// checksum verified. When the source is a seekable file, prefer
// ReadCollectionFile (header bounds checked against the file size) or
// OpenPagedFile (mmap, no read at all).
func ReadCollection(r io.Reader) ([]ranking.Ranking, error) {
	br := bufio.NewReader(r)
	if b, err := br.Peek(4); err == nil && binary.LittleEndian.Uint32(b) == pagedMagic {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		pc, err := ReadPagedAll(data)
		if err != nil {
			return nil, err
		}
		return pc.Slots(), nil
	}
	v, err := readVersionedHeader(br, magicRankings)
	if err != nil {
		return nil, err
	}
	n, k, err := readCollectionPrefix(br)
	if err != nil {
		return nil, err
	}
	if v == version {
		return readDenseBody(br, n, k, boundedCap(n))
	}
	return readSlotsBody(br, n, k, boundedCap(n))
}

// collectionHeaderLen is the v1/v2 fixed prefix: magic, version, n, k.
const collectionHeaderLen = 16

// ReadCollectionFile loads a snapshot of any version from path. Unlike the
// stream reader it knows the file size, so v1/v2 header counts are
// validated against the actual bytes BEFORE any allocation: a truncated
// file or a bit-flipped count fails with ErrCorrupt instead of decoding
// garbage or allocating for a collection the file cannot possibly hold.
// (The v3 reader performs the same validation from its own header.)
func ReadCollectionFile(path string) ([]ranking.Ranking, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	if b, err := br.Peek(4); err == nil && binary.LittleEndian.Uint32(b) == pagedMagic {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		pc, err := ReadPagedAll(data)
		if err != nil {
			return nil, err
		}
		return pc.Slots(), nil
	}
	v, err := readVersionedHeader(br, magicRankings)
	if err != nil {
		return nil, err
	}
	n, k, err := readCollectionPrefix(br)
	if err != nil {
		return nil, err
	}
	if v == version {
		if want := collectionHeaderLen + int64(n)*int64(k)*4; size != want {
			return nil, fmt.Errorf("%w: v1 header declares %d rankings of size %d (%d bytes), file has %d",
				ErrCorrupt, n, k, want, size)
		}
		return readDenseBody(br, n, k, int(n))
	}
	// v2 slots vary per flag byte: n bytes when everything is a tombstone,
	// n×(1+4k) when everything is live.
	lo := collectionHeaderLen + int64(n)
	hi := collectionHeaderLen + int64(n)*(1+4*int64(k))
	if size < lo || size > hi {
		return nil, fmt.Errorf("%w: v2 header declares %d slots of size %d, impossible for a %d-byte file",
			ErrCorrupt, n, k, size)
	}
	return readSlotsBody(br, n, k, int(n))
}
