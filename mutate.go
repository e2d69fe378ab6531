// Mutation support for the dynamic index kinds: Insert, Delete, Update and
// tombstone compaction.
//
// The mutation state machine — the external↔internal id map, the "first
// insert defines k" rule, the RWMutex that serializes writers against
// concurrent searches and synchronous compaction once tombstones pass a ratio
// of the id space — is internal/invindex.Mutable, the index cmd/topkserve
// serves. InvertedIndex wraps it, and HybridIndex wraps an InvertedIndex;
// external IDs are stable across mutations and compactions. The paper
// baselines, StaticInvertedIndex among them, are static.
package topk

import "topk/internal/invindex"

// ErrUnknownID is returned by Delete and Update for an external ID that was
// never assigned or has already been deleted.
var ErrUnknownID = invindex.ErrUnknownID

// DefaultCompactionRatio is the tombstone fraction of the internal id space
// above which a mutable index rebuilds itself. See WithCompactionRatio.
const DefaultCompactionRatio = invindex.DefaultCompactionRatio

// RebuildStats describes the compaction history of a mutable index.
type RebuildStats = invindex.RebuildStats

// MutableIndex is the interface of index kinds that support full collection
// mutation. InvertedIndex and HybridIndex implement it.
type MutableIndex interface {
	Index
	// Insert adds a ranking and returns its new, stable ID.
	Insert(r Ranking) (ID, error)
	// Delete removes the ranking with the given ID. The ID is retired and
	// never reused. Returns ErrUnknownID for unassigned or deleted IDs.
	Delete(id ID) error
	// Update replaces the ranking stored under an existing ID, keeping the
	// ID stable. Returns ErrUnknownID for unassigned or deleted IDs.
	Update(id ID, r Ranking) error
}

var _ MutableIndex = (*InvertedIndex)(nil)
