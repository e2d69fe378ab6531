// HybridIndex mutations: Insert, Delete and Update across both backends,
// plus the epoch rebuild that folds the mutation overlay back into the
// static one.
//
// The write path has two halves. The inverted index absorbs every mutation
// in place: inserts append to it — its internal ids grow in lockstep with
// the epoch's, so both backends keep sharing one id space — and deletes
// tombstone inside it. The adaptsearch index cannot be maintained
// incrementally; its queries instead merge an append-only delta region by
// linear scan with tombstone filtering (see overlayBackend). The overlay's
// per-query cost is charged to the planner as an additive surcharge so
// routing shifts away from adaptsearch as the delta grows, and once the
// overlay fraction crosses the configured ratio a background epoch rebuild
// constructs fresh backends over the folded collection off-lock, replays the
// mutations that arrived meanwhile, swaps the epoch in and re-seeds the
// planner's priors from a newly fitted cost model (estimate invalidation:
// the old EWMAs describe structures that no longer exist).
package topk

import (
	"fmt"
	"time"

	"topk/internal/ranking"
)

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
	h.mu.Lock()
	defer h.mu.Unlock()
	ext, err := h.ep.insert(r)
	if err != nil {
		return 0, err
	}
	h.noteMutationLocked(hybridOp{kind: hybridOpInsert, ext: ext, r: r})
	return ext, nil
}

// Delete removes the ranking with the given ID. The ID is retired and never
// reused. Returns ErrUnknownID for unassigned or deleted IDs.
func (h *HybridIndex) Delete(id ID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ep.delete(id); err != nil {
		return err
	}
	h.noteMutationLocked(hybridOp{kind: hybridOpDelete, ext: id})
	return nil
}

// Update replaces the ranking stored under an existing ID, keeping the ID
// stable: the old version is tombstoned and the new one appended (delete +
// re-insert, the exact update semantics of the Fagin et al. list model).
func (h *HybridIndex) Update(id ID, r Ranking) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ep.update(id, r); err != nil {
		return err
	}
	h.noteMutationLocked(hybridOp{kind: hybridOpUpdate, ext: id, r: r})
	return nil
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
	ep, priors, err := buildEpoch(h.ep.slots(), h.cfg)
	if err != nil {
		return err
	}
	// Any background fold still in flight was built from an older snapshot:
	// bump the generation so its install is discarded.
	h.foldGen++
	h.oplog = nil
	h.installEpochLocked(ep, priors, time.Since(start))
	return nil
}

// noteMutationLocked runs the post-mutation bookkeeping: oplog capture for
// an in-flight fold, the planner's overlay surcharge, and the rebuild
// trigger.
func (h *HybridIndex) noteMutationLocked(op hybridOp) {
	if h.rebuilding {
		h.oplog = append(h.oplog, op)
	}
	h.chargeOverlayLocked()
	h.maybeRebuildLocked()
}

// chargeOverlayLocked prices the delta linear scan into the planner's
// estimate for adaptsearch: live delta entries × the calibrated Footrule
// cost. The inverted backend absorbed the mutations structurally, so its
// estimate needs no surcharge — the EWMA tracks its organic growth.
func (h *HybridIndex) chargeOverlayLocked() {
	ep := h.ep
	h.pl.SetOverlayCost(hybridAdaptSearch, ep.footruleNanos*float64(len(ep.delta)-ep.deadDelta))
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
	ep, priors, err := buildEpoch(slots, h.cfg)
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
		if replayErr := ep.apply(op); replayErr != nil {
			// Unreachable: every logged op was validated when it was first
			// applied, and the rebuilt epoch has the identical external id
			// space. Discard the fold rather than install a diverged epoch.
			h.oplog = nil
			return
		}
	}
	h.oplog = nil
	h.installEpochLocked(ep, priors, time.Since(start))
}

// installEpochLocked swaps the epoch in, re-seeds the planner's priors from
// the rebuild's freshly fitted cost model (invalidating the per-bucket
// EWMAs, which describe the previous epoch's structures), and re-prices the
// overlay surcharge for whatever delta the replay left behind. dur is the
// rebuild's wall time from snapshot to install.
func (h *HybridIndex) installEpochLocked(ep *hybridEpoch, priors [][]float64, dur time.Duration) {
	h.ep = ep
	h.noteSpillLocked(ep)
	h.pl.Reseed(priors)
	h.chargeOverlayLocked()
	h.rebuilds.Add(1)
	h.rebuildNanos.Add(uint64(dur.Nanoseconds()))
	h.lastRebuildNanos.Store(uint64(dur.Nanoseconds()))
}

// apply replays one logged mutation onto a rebuilt epoch. Replayed inserts
// must land on the same external ids the live epoch assigned.
func (ep *hybridEpoch) apply(op hybridOp) error {
	switch op.kind {
	case hybridOpInsert:
		ext, err := ep.insert(op.r)
		if err != nil {
			return err
		}
		if ext != op.ext {
			return fmt.Errorf("topk: hybrid fold replay assigned id %d, want %d", ext, op.ext)
		}
		return nil
	case hybridOpDelete:
		return ep.delete(op.ext)
	default:
		return ep.update(op.ext, op.r)
	}
}

// ---------------------------------------------------------------------------
// Epoch-level mutation primitives (caller holds the hybrid's write lock)
// ---------------------------------------------------------------------------

// checkRanking validates a mutation payload against the epoch.
func (ep *hybridEpoch) checkRanking(r Ranking, verb string) error {
	if ep.k == 0 && ep.ids.live == 0 && r.K() > 0 {
		// Built over zero live rankings (e.g. an all-tombstone snapshot
		// shard): the first insert defines the ranking size.
		ep.k = r.K()
	}
	if r.K() != ep.k {
		return fmt.Errorf("topk: %s ranking has size %d, want %d: %w",
			verb, r.K(), ep.k, ranking.ErrSizeMismatch)
	}
	return r.Validate()
}

// mirrorInsert appends r to the inverted index, asserting its internal id
// space stays aligned with the epoch's. A zero-live epoch has no index: the
// insert rides the overlay alone until the first fold.
func (ep *hybridEpoch) mirrorInsert(r Ranking, intID ID) error {
	if ep.inv == nil {
		return nil
	}
	got, err := ep.inv.Insert(r)
	if err != nil {
		return fmt.Errorf("topk: hybrid inverted insert: %w", err)
	}
	if got != intID {
		return fmt.Errorf("topk: hybrid inverted insert: internal id %d, want %d (id spaces diverged)", got, intID)
	}
	return nil
}

func (ep *hybridEpoch) insert(r Ranking) (ID, error) {
	if err := ep.checkRanking(r, "inserted"); err != nil {
		return 0, err
	}
	intID := ID(ep.n())
	if err := ep.mirrorInsert(r, intID); err != nil {
		return 0, err
	}
	ep.delta = append(ep.delta, r)
	ep.dead = append(ep.dead, false)
	return ep.ids.insert(intID), nil
}

// tombstone retires an internal id in the overlay and in the inverted index.
func (ep *hybridEpoch) tombstone(intID ID) error {
	if ep.inv != nil {
		if err := ep.inv.Delete(intID); err != nil {
			return fmt.Errorf("topk: hybrid inverted delete: %w", err)
		}
	}
	ep.dead[intID] = true
	if int(intID) < len(ep.base) {
		ep.deadBase++
	} else {
		ep.deadDelta++
	}
	return nil
}

func (ep *hybridEpoch) delete(ext ID) error {
	intID, err := ep.ids.lookup(ext)
	if err != nil {
		return err
	}
	if err := ep.tombstone(intID); err != nil {
		return err
	}
	ep.ids.delete(ext)
	return nil
}

func (ep *hybridEpoch) update(ext ID, r Ranking) error {
	if err := ep.checkRanking(r, "updated"); err != nil {
		return err
	}
	intID, err := ep.ids.lookup(ext)
	if err != nil {
		return err
	}
	if err := ep.tombstone(intID); err != nil {
		return err
	}
	newInt := ID(ep.n())
	if err := ep.mirrorInsert(r, newInt); err != nil {
		// Unreachable after the validation above; retire the id rather than
		// leave it pointing at a tombstone.
		ep.ids.delete(ext)
		return err
	}
	ep.delta = append(ep.delta, r)
	ep.dead = append(ep.dead, false)
	ep.ids.reassign(ext, newInt)
	return nil
}
