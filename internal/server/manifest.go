// The collection manifest: the single durable source of truth for which
// dynamically created collections exist under the WAL root. Layout on disk:
//
//	<wal-root>/
//	    MANIFEST            CRC-checked list of collections and their options
//	    <collection>/       one WAL directory per collection
//	        wal-*.log       mutation segments
//	        checkpoint-*.v3f  checkpoint footers over the shared pages.v3
//
// The manifest is rewritten atomically (tmp + fsync + rename + dir sync) on
// every create and drop, ordered so that a crash at any instant recovers to
// a consistent registry:
//
//   - create writes the manifest BEFORE publishing the collection — a crash
//     in between recovers an empty collection, never loses an acked one;
//   - drop unpublishes and rewrites the manifest BEFORE removing the WAL
//     directory — a crash in between leaves an orphaned directory that the
//     manifest no longer references, which the next create of the same name
//     clears instead of resurrecting.
//
// The default (flag-defined) collection is never in the manifest: its
// existence and options are the command line's, re-resolved on every start.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

const (
	manifestName    = "MANIFEST"
	manifestMagic   = "TKMF"
	manifestVersion = 1
)

// castagnoli matches the WAL's CRC-32C flavor.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifestEntry records one dynamically created collection: everything
// needed to rebuild it from its WAL directory on restart.
type manifestEntry struct {
	Name    string          `json:"name"`
	Created time.Time       `json:"created"`
	Options manifestOptions `json:"options"`
}

// manifestOptions are an entry's collection options plus what an older
// server recorded that this one only reads to retire (retireStaleOptions).
type manifestOptions struct {
	CollectionOptions
	ForceBackend string `json:"forceBackend,omitempty"`
}

func manifestPath(walRoot string) string { return filepath.Join(walRoot, manifestName) }

// writeManifest atomically replaces the manifest with entries. The payload
// is JSON behind a fixed binary header — magic, version, length, CRC-32C —
// so a torn or bit-rotted file fails loudly at startup instead of silently
// recovering half a registry.
func writeManifest(path string, entries []manifestEntry) error {
	payload, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], manifestVersion)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, castagnoli))
	buf.Write(hdr[:])
	buf.Write(payload)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, manifestName+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename must itself be durable before a create acks: fsync the
	// directory like the WAL does for its segment files.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readManifest loads the manifest; a missing file is an empty registry (the
// first start under a fresh WAL root), a corrupt one is a hard error.
func readManifest(path string) ([]manifestEntry, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < len(manifestMagic)+12 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("manifest %s: bad magic", path)
	}
	hdr := raw[len(manifestMagic):]
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != manifestVersion {
		return nil, fmt.Errorf("manifest %s: unsupported version %d", path, v)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	sum := binary.LittleEndian.Uint32(hdr[8:12])
	payload := hdr[12:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("manifest %s: truncated payload (%d of %d bytes)", path, len(payload), n)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("manifest %s: checksum mismatch (file %08x, computed %08x)", path, sum, got)
	}
	var entries []manifestEntry
	if err := json.Unmarshal(payload, &entries); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	for _, e := range entries {
		if err := validateCollectionName(e.Name); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", path, err)
		}
	}
	return entries, nil
}
