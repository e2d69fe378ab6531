// HybridIndex mutations: Insert, Delete and Update, plus the epoch rebuild
// that folds the mutation overlay back into the static sidecar.
//
// The bookkeeping is mutationCore's (mutate.go), embedded in the epoch over
// its inverted index: inserts append to that index, deletes tombstone inside
// it, and it alone holds the epoch's rankings and tombstones. The adaptsearch
// index cannot be maintained incrementally; its queries instead read the
// inverted index's rankings past the build-time base as an append-only delta
// region, merged by linear scan with tombstone filtering (see
// overlayBackend). What this file adds is policy: once the overlay fraction
// crosses the configured ratio a background epoch rebuild constructs fresh
// backends over the folded collection off-lock, replays the mutations that
// arrived meanwhile and swaps the epoch in.
package topk

import "time"

var _ MutableIndex = (*HybridIndex)(nil)

// hybridOpKind discriminates oplog entries.
type hybridOpKind uint8

const (
	hybridOpInsert hybridOpKind = iota
	hybridOpDelete
	hybridOpUpdate
)

// hybridOp is one logged mutation, replayed onto a freshly rebuilt epoch.
type hybridOp struct {
	kind hybridOpKind
	ext  ID
	r    Ranking
}

// Insert adds a ranking and returns its new, stable ID. The inverted backend
// absorbs it in place; for adaptsearch it lands in the delta overlay until
// the next epoch rebuild.
func (h *HybridIndex) Insert(r Ranking) (ID, error) {
	return h.mutate(hybridOp{kind: hybridOpInsert, r: r})
}

// Delete removes the ranking with the given ID. The ID is retired and never
// reused. Returns ErrUnknownID for unassigned or deleted IDs.
func (h *HybridIndex) Delete(id ID) error {
	_, err := h.mutate(hybridOp{kind: hybridOpDelete, ext: id})
	return err
}

// Update replaces the ranking stored under an existing ID, keeping the ID
// stable: the new version is appended and the old one tombstoned (delete +
// re-insert, the exact update semantics of the Fagin et al. list model).
func (h *HybridIndex) Update(id ID, r Ranking) error {
	_, err := h.mutate(hybridOp{kind: hybridOpUpdate, ext: id, r: r})
	return err
}

// mutate applies one mutation to the current epoch and runs the bookkeeping
// that follows a successful one: oplog capture for an in-flight fold and the
// rebuild trigger.
func (h *HybridIndex) mutate(op hybridOp) (ID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ext, err := h.ep.apply(op)
	if err != nil {
		return 0, err
	}
	if h.rebuilding {
		op.ext = ext
		h.oplog = append(h.oplog, op)
	}
	h.maybeRebuildLocked()
	return ext, nil
}

// Compact folds the delta overlay and all tombstones into both backends
// synchronously, under the write lock (searches observe the epoch before or
// after). External IDs are preserved. Prefer the automatic background fold
// (WithHybridDeltaRatio) for serving workloads; Compact is the eager,
// deterministic variant.
func (h *HybridIndex) Compact() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	start := time.Now()
	ep, err := buildEpoch(h.ep.slots(), h.cfg)
	if err != nil {
		return err
	}
	// Any background fold still in flight was built from an older snapshot:
	// bump the generation so its install is discarded.
	h.foldGen++
	h.oplog = nil
	h.installEpochLocked(ep, time.Since(start))
	return nil
}

// maybeRebuildLocked schedules a background epoch rebuild once the overlay
// fraction crosses the configured ratio and none is already in flight.
func (h *HybridIndex) maybeRebuildLocked() {
	if h.cfg.deltaRatio <= 0 || h.rebuilding {
		return
	}
	if h.ep.overlayFraction() <= h.cfg.deltaRatio {
		return
	}
	h.rebuilding = true
	h.oplog = nil
	go h.foldEpoch(h.ep.slots(), h.foldGen)
}

// foldEpoch is the background half of the epoch rebuild: the expensive
// backend construction runs off-lock against the snapshot, then the write
// lock is taken only to replay the mutations logged meanwhile and swap the
// epoch in. Queries keep being served from the old epoch throughout.
func (h *HybridIndex) foldEpoch(slots []Ranking, gen uint64) {
	start := time.Now()
	ep, err := buildEpoch(slots, h.cfg)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rebuilding = false
	if err != nil || gen != h.foldGen {
		// Build failure (keep serving the old epoch; a later mutation
		// re-triggers) or a synchronous Compact already installed a fresher
		// epoch than this snapshot.
		h.oplog = nil
		return
	}
	for _, op := range h.oplog {
		// Replayed inserts must land on the external ids the live epoch
		// assigned. Neither failure is reachable — every logged op was
		// validated when it was first applied, and the rebuilt epoch has the
		// identical external id space — but a diverged epoch is never
		// installed.
		if ext, err := ep.apply(op); err != nil || ext != op.ext {
			h.oplog = nil
			return
		}
	}
	h.oplog = nil
	h.installEpochLocked(ep, time.Since(start))
}

// installEpochLocked swaps the epoch in and books the rebuild; dur is its
// wall time from snapshot to install.
func (h *HybridIndex) installEpochLocked(ep *hybridEpoch, dur time.Duration) {
	h.ep = ep
	h.noteSpillLocked(ep)
	h.rebuilds.Add(1)
	h.rebuildNanos.Add(uint64(dur.Nanoseconds()))
	h.lastRebuildNanos.Store(uint64(dur.Nanoseconds()))
}

// apply runs one mutation through the epoch's core — live, or replayed onto
// a rebuilt epoch — and returns the external id it concerns.
func (ep *hybridEpoch) apply(op hybridOp) (ID, error) {
	switch op.kind {
	case hybridOpInsert:
		return ep.insert(op.r)
	case hybridOpDelete:
		return op.ext, ep.delete(op.ext)
	default:
		return op.ext, ep.update(op.ext, op.r)
	}
}
