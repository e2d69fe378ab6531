// Collection lifecycle: create, drop, inspect. The registry map is the
// serving truth (lookups route against it), the manifest is the durable
// truth (restarts recover from it); every transition keeps the two ordered
// so a crash at any instant lands in a state the next start handles — see
// the manifest package comment for the exact ordering argument.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"topk/internal/admit"
)

var (
	errCollectionExists   = errors.New("collection already exists")
	errCollectionNotFound = errors.New("unknown collection")
	errDefaultCollection  = errors.New("the default collection is flag-defined and cannot be dropped")
)

// createCollection brings an empty collection up under name and publishes
// it. With a WAL root the collection is durable: its directory is cleared of
// any orphan a crashed drop left behind, and the manifest gains its entry
// BEFORE the collection becomes visible, so an acked create is never lost to
// a crash.
func (s *Server) createCollection(name string, opts CollectionOptions) (*Collection, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if _, ok := s.collections[name]; ok {
		return nil, errCollectionExists
	}
	walDir := s.walDirFor(name)
	if walDir != "" {
		// A directory can exist here only if a drop crashed after its
		// manifest rewrite and before its removal: the manifest no longer
		// references it, so its contents belong to a dead instance.
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
	}
	c, err := s.openCollection(name, opts, walDir, nil)
	if err != nil {
		return nil, err
	}
	if walDir != "" {
		entry := manifestEntry{Name: name, Created: c.created.UTC(), Options: manifestOptions{CollectionOptions: opts}}
		next := append(append([]manifestEntry(nil), s.manifest...), entry)
		if err := writeManifest(manifestPath(s.walRoot), next); err != nil {
			c.close()
			return nil, fmt.Errorf("manifest: %w", err)
		}
		s.manifest = next
	}
	s.collections[name] = c
	return c, nil
}

// dropCollection unpublishes a collection, rewrites the manifest without it,
// drains every in-flight request against it, closes its WAL and removes its
// directory — in that order. New requests 404 the moment it leaves the map;
// requests already inside finish normally (never 500) because close blocks
// on their refs.
func (s *Server) dropCollection(name string) error {
	s.regMu.Lock()
	c, ok := s.collections[name]
	if !ok {
		s.regMu.Unlock()
		return errCollectionNotFound
	}
	if name == s.cfg.DefaultCollection {
		s.regMu.Unlock()
		return errDefaultCollection
	}
	delete(s.collections, name)
	var manifestErr error
	if s.walRoot != "" {
		next := make([]manifestEntry, 0, len(s.manifest))
		for _, e := range s.manifest {
			if e.Name != name {
				next = append(next, e)
			}
		}
		if manifestErr = writeManifest(manifestPath(s.walRoot), next); manifestErr == nil {
			s.manifest = next
		} else {
			manifestErr = fmt.Errorf("manifest: %w", manifestErr)
		}
	}
	s.regMu.Unlock()

	if err := c.close(); err != nil {
		fmt.Fprintf(s.cfg.logw(), "drop %q: wal close: %v\n", name, err)
	}
	if s.walRoot != "" && manifestErr == nil {
		if err := os.RemoveAll(filepath.Join(s.walRoot, name)); err != nil {
			fmt.Fprintf(s.cfg.logw(), "drop %q: remove wal dir: %v\n", name, err)
		}
	}
	return manifestErr
}

// collectionInfo is the JSON shape of GET /collections{,/name}: identity,
// options, live size, traffic counters and durability lag.
type collectionInfo struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	K       int       `json:"k"`
	N       int       `json:"n"`
	Default bool      `json:"default,omitempty"`
	Created time.Time `json:"created"`
	Weight  float64   `json:"weight,omitempty"`
	// Generation is the query-cache validity stamp (acked mutations).
	Generation uint64 `json:"generation"`
	Queries    uint64 `json:"queries"`
	KNNQueries uint64 `json:"knnQueries"`
	Mutations  uint64 `json:"mutations"`
	Rebuilds   uint64 `json:"rebuilds"`
	// WAL reports the durability counters (and startup replay) when the
	// collection is durable; its append/checkpoint deltas are the
	// replay-on-crash lag.
	WAL *walStatsJSON `json:"wal,omitempty"`
	// Storage reports the checkpoint page economy of a durable collection's
	// paged (snapshot v3) storage.
	Storage *storageStatsJSON `json:"storage,omitempty"`
	// Admission is this collection's carve of the shared capacity; absent
	// for unthrottled collections.
	Admission *admit.Stats `json:"admission,omitempty"`
}

// info snapshots one collection for the lifecycle routes.
func (s *Server) info(c *Collection) collectionInfo {
	ci := collectionInfo{
		Name:       c.name,
		Kind:       c.opts.Kind,
		K:          c.idx.K(),
		N:          c.idx.Len(),
		Default:    c.name == s.cfg.DefaultCollection,
		Created:    c.created,
		Weight:     c.opts.Weight,
		Generation: c.generation(),
		Queries:    c.queries.Load(),
		KNNQueries: c.knn.Load(),
		Mutations:  c.mutations.Load(),
		Rebuilds:   c.idx.Rebuilds(),
	}
	if c.wal != nil {
		ci.WAL = &walStatsJSON{Dir: c.wal.Dir(), Replayed: c.walReplayed, Stats: c.wal.Stats()}
	}
	ci.Storage = c.storageStats()
	if c.admission != nil {
		a := c.admission.Stats()
		ci.Admission = &a
	}
	return ci
}
