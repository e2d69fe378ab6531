// Collection lifecycle (create / drop / get / list) and the two storage
// routes of a collection: snapshot streaming and checkpointing.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"topk/internal/persist"
)

// handleCreateCollection makes a new, empty collection. The body is
// optional JSON CollectionOptions; an absent body takes every default.
func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateCollectionName(name); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var opts CollectionOptions
	if !s.decodeJSON(w, r, &opts, true) {
		return
	}
	opts = opts.withDefaults(s.cfg)
	if err := opts.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := s.createCollection(name, opts)
	switch {
	case errors.Is(err, errCollectionExists):
		httpError(w, http.StatusConflict, "collection %q already exists", name)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "create collection: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.info(c))
}

// handleDropCollection drains and removes a collection; see dropCollection
// for the crash-ordering. The flag-defined default is not droppable (409).
func (s *Server) handleDropCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	err := s.dropCollection(name)
	switch {
	case errors.Is(err, errCollectionNotFound):
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
	case errors.Is(err, errDefaultCollection):
		httpError(w, http.StatusConflict, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "drop collection: %v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	}
}

func (s *Server) handleGetCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c, ok := s.lookup(name)
	if !ok || !c.ref() {
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
		return
	}
	defer c.unref()
	writeJSON(w, http.StatusOK, s.info(c))
}

func (s *Server) handleListCollections(w http.ResponseWriter, r *http.Request) {
	cols := s.collectionsSnapshot()
	infos := make([]collectionInfo, 0, len(cols))
	for _, c := range cols {
		if !c.ref() {
			continue
		}
		infos = append(infos, s.info(c))
		c.unref()
	}
	writeJSON(w, http.StatusOK, map[string]any{"collections": infos})
}

// handleSnapshot streams the collection as a single-file v3 snapshot: the
// external-id slot array with tombstones marked, so restarting with
// -load-snapshot preserves every id. `curl -s :8080/snapshot > snap.v3`.
func (s *Server) handleSnapshot(c *Collection, w http.ResponseWriter, r *http.Request) {
	slots := c.idx.Slots()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=\"rankings.v3\"")
	if _, err := persist.WritePagedTo(w, slots); err != nil {
		// Headers are gone; all we can do is log.
		fmt.Fprintf(s.cfg.logw(), "collection %q: snapshot write: %v\n", c.name, err)
	}
}

// checkpointResponse reports what POST /checkpoint wrote and reclaimed.
type checkpointResponse struct {
	// Seq is the log sequence the checkpoint is consistent at: it reflects
	// every mutation acked before it and none after.
	Seq uint64 `json:"seq"`
	// Bytes is what the checkpoint physically wrote: the changed pages, not
	// the collection size.
	Bytes int64 `json:"bytes"`
	// Slots and Live describe the captured collection (id-space size and
	// non-tombstoned count).
	Slots int `json:"slots"`
	Live  int `json:"live"`
	// Page economy of the incremental write: pages/bytes rewritten versus
	// carried over unchanged from the previous checkpoint.
	PagesWritten int   `json:"pagesWritten"`
	PagesReused  int   `json:"pagesReused"`
	BytesReused  int64 `json:"bytesReused"`
}

// handleCheckpoint makes the collection state durable and truncates its WAL:
// under the mutation lock it rotates the log and captures the consistent
// slot view (an exact cut: no mutation applies while walMu is held), then writes an incremental
// paged (v3) checkpoint off-lock — every page is compared with the previous
// footer's, only the pages that differ hit the disk — atomically installs
// its footer as checkpoint-<seq>.v3f and deletes the segments and
// checkpoints it supersedes. Mutations arriving during the write land in the
// post-rotation segment, which recovery replays on top of the checkpoint. A
// failed attempt leaves nothing to restore: the next one compares again.
func (s *Server) handleCheckpoint(c *Collection, w http.ResponseWriter, r *http.Request) {
	if c.wal == nil {
		httpError(w, http.StatusBadRequest, "collection has no write-ahead log: nothing to checkpoint")
		return
	}
	c.checkpointMu.Lock()
	defer c.checkpointMu.Unlock()
	c.walMu.Lock()
	seq, err := c.wal.Rotate()
	if err != nil {
		c.walMu.Unlock()
		httpError(w, http.StatusInternalServerError, "wal rotate: %v", err)
		return
	}
	slots := c.idx.Slots()
	c.walMu.Unlock()
	var stats persist.CheckpointStats
	if err := c.wal.Checkpoint(seq, func(string) error {
		var werr error
		stats, werr = c.pager.WriteCheckpoint(seq, slots)
		return werr
	}); err != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	c.ckptPagesWritten.Add(uint64(stats.PagesWritten))
	c.ckptPagesReused.Add(uint64(stats.PagesReused))
	c.ckptBytesWritten.Add(uint64(stats.BytesWritten))
	c.ckptBytesReused.Add(uint64(stats.BytesReused))
	live := 0
	for _, r := range slots {
		if r != nil {
			live++
		}
	}
	writeJSON(w, http.StatusOK, checkpointResponse{
		Seq: seq, Bytes: stats.BytesWritten, Slots: len(slots), Live: live,
		PagesWritten: stats.PagesWritten, PagesReused: stats.PagesReused, BytesReused: stats.BytesReused,
	})
}
