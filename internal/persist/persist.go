// Package persist is the on-disk form of a ranking collection: the
// external-id slot array (slots[id] is the live ranking under id, nil a
// retired id) and nothing else. Index structures are never serialized; every
// index is rebuilt from the reloaded slot array.
//
// There is one format, the paged snapshot v3 described in paged.go: a single
// file (WritePagedTo / OpenPagedFile — what topkgen -format binary,
// topkquery -save-snapshot and GET /snapshot produce and what -load-snapshot
// reads) or, for incremental checkpoints, a shared page file plus one footer
// per checkpoint (pager.go). Nothing in this package writes anything else,
// and every reader (OpenPagedFile, ReadPagedAll, OpenPagedDir) goes through
// one loader, which verifies every page checksum and fills a kernel.Store
// with the live rankings in slot order plus the slot of each
// (PagedCollection.Store and IDs): an index is built over that store as it
// is, with no slot array in between. Slots still builds the slot array, as
// views over the store, for the callers that want one.
//
// The two formats that preceded it — "TKRK" version 1 (dense rankings) and
// version 2 (flagged slots) — survive as one bounded stream decoder,
// ReadLegacy, whose only caller is the offline migration
// `topkquery -load-snapshot old.bin -save-snapshot new.v3`. The v3 readers
// answer ErrLegacyFormat for such a file instead of decoding it.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"topk/internal/ranking"
)

const (
	legacyMagic = 0x544b524b // "TKRK"
	legacyDense = 1          // n rankings of k items each
	legacySlots = 2          // n slots: flag byte 0 = tombstone, 1 = k items follow
)

// ErrBadFormat is returned when the input does not match the expected
// artifact layout.
var ErrBadFormat = errors.New("persist: bad format")

// ErrLegacyFormat is what the v3 readers return for a "TKRK" v1/v2 snapshot:
// still a well-formed artifact, but one only ReadLegacy decodes.
var ErrLegacyFormat = fmt.Errorf("%w: legacy TKRK (v1/v2) snapshot", ErrBadFormat)

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadLegacy decodes a "TKRK" snapshot of version 1 or 2 into a slot array:
// a v1 collection loads all-live, a v2 snapshot restores tombstones as nil
// slots, trailing ones included. A stream reader cannot check the header's
// slot count against a file size, so the slot array grows as slots are
// actually decoded (see boundedCap): a corrupted count ends in a truncation
// error, not a huge allocation.
func ReadLegacy(r io.Reader) ([]ranking.Ranking, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte // magic, version, n, k
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:]) != legacyMagic {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	v := le.Uint32(hdr[4:])
	if v != legacyDense && v != legacySlots {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	n, k := le.Uint32(hdr[8:]), le.Uint32(hdr[12:])
	if k > ranking.MaxK {
		return nil, fmt.Errorf("%w: implausible k=%d", ErrBadFormat, k)
	}
	slots := make([]ranking.Ranking, 0, boundedCap(n))
	for i := uint32(0); i < n; i++ {
		if v == legacySlots {
			flag, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: truncated slot %d: %v", ErrBadFormat, i, err)
			}
			if flag == 0 {
				slots = append(slots, nil)
				continue
			}
			if flag != 1 {
				return nil, fmt.Errorf("%w: slot %d has flag %d", ErrBadFormat, i, flag)
			}
		}
		if k == 0 {
			return nil, fmt.Errorf("%w: live slot %d in a k=0 snapshot", ErrBadFormat, i)
		}
		rr := make(ranking.Ranking, k)
		if err := binary.Read(br, le, []ranking.Item(rr)); err != nil {
			return nil, fmt.Errorf("%w: truncated ranking %d: %v", ErrBadFormat, i, err)
		}
		if err := rr.Validate(); err != nil {
			return nil, fmt.Errorf("%w: slot %d: %v", ErrBadFormat, i, err)
		}
		slots = append(slots, rr)
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
