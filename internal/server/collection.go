package server

import (
	"fmt"
	"os"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/admit"
	"topk/internal/invindex"
	"topk/internal/persist"
	"topk/internal/ranking"
	"topk/internal/wal"
)

// collectionNameRE bounds collection names to what is safe as a WAL
// directory name AND as a Prometheus label value: no separators, no
// escaping, at most 64 characters.
var collectionNameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// validateCollectionName rejects names that would need escaping somewhere
// down the stack (paths, label values, URLs).
func validateCollectionName(name string) error {
	if !collectionNameRE.MatchString(name) {
		return fmt.Errorf("invalid collection name %q: want 1-64 characters of [a-zA-Z0-9_-]", name)
	}
	return nil
}

// CollectionOptions are the per-collection knobs of PUT /collections/{name}
// and the manifest entry a durable collection is recovered from. The zero
// value of every field means "server default".
type CollectionOptions struct {
	// Kind is the index kind, one of the served (mutable) kinds.
	Kind string `json:"kind,omitempty"`
	// Shards is accepted and ignored.
	//
	// Deprecated: it was the sub-index count of a collection cut into
	// shards; a collection is one index now. The field remains so that
	// existing create requests and manifests keep decoding.
	Shards int `json:"shards,omitempty"`
	// K declares the ranking size of a collection created empty; the index
	// (invindex.NewMutable) checks every query and mutation against it. 0
	// leaves the size to the first insert.
	K int `json:"k,omitempty"`
	// Calibrate is accepted on every kind and ignored.
	//
	// Deprecated: it sized the start-up replay of a query router the hybrid
	// no longer has; the field remains so that existing create requests and
	// manifests keep decoding.
	Calibrate int `json:"calibrate,omitempty"`
	// DeltaRatio is the compaction ratio; 0 uses the server's -delta-ratio
	// (itself defaulting to invindex.DefaultCompactionRatio).
	DeltaRatio float64 `json:"deltaRatio,omitempty"`
	// Weight is this collection's share of the global admission capacity,
	// in (0, 1): a flooded tenant with weight w can hold at most
	// ceil(w × -max-concurrency) concurrent search units, leaving the rest
	// for everyone else. 0 (or ≥ 1) means unthrottled — bounded only by the
	// global controller, the single-tenant behavior.
	Weight float64 `json:"weight,omitempty"`
}

// withDefaults fills zero fields from the server flags.
func (o CollectionOptions) withDefaults(cfg Config) CollectionOptions {
	if o.Kind == "" {
		o.Kind = cfg.Kind
	}
	if o.DeltaRatio == 0 {
		o.DeltaRatio = cfg.DeltaRatio
	}
	return o
}

// validate rejects option combinations create would otherwise silently
// ignore or that would break invariants down the stack.
func (o CollectionOptions) validate() error {
	if err := validateKind(o.Kind); err != nil {
		return err
	}
	if o.K < 0 {
		return fmt.Errorf("k must be non-negative, have %d", o.K)
	}
	if o.K > ranking.MaxK {
		return fmt.Errorf("ranking sizes are capped at %d, have k=%d", ranking.MaxK, o.K)
	}
	if o.Weight < 0 || o.Weight > 1 {
		return fmt.Errorf("weight %v outside [0,1]", o.Weight)
	}
	return nil
}

// Collection is one named tenant of the serving core: its index, its
// write-ahead log, its slice of the admission capacity, its query-cache
// scope and its traffic counters. All fields are published before the
// collection enters the registry and are immutable after, except the
// counters and the drain state.
type Collection struct {
	name string
	// cacheScope joins every query-cache key: name plus a registry-unique
	// instance number, so dropping and recreating a collection can never
	// serve entries cached against its predecessor even if the new instance
	// reaches the same generation.
	cacheScope string
	opts       CollectionOptions
	created    time.Time

	idx *invindex.Mutable
	// admission is this tenant's carve of the global capacity (nil when the
	// collection is unthrottled or admission is disabled); handlers acquire
	// it BEFORE the global controller so a flooded tenant queues and sheds
	// at its own carve.
	admission *admit.Controller

	queries   atomic.Uint64
	knn       atomic.Uint64
	batches   atomic.Uint64
	mutations atomic.Uint64

	// storage is the durable half (zero for an in-memory collection). With
	// a wal, apply applies the mutation and appends its record under
	// walMu — one lock for both steps, so the log order always equals the
	// apply order (two concurrent inserts must not ack in one order and
	// replay in the other). Checkpoints take the same lock for their
	// rotation+capture instant.
	storage
	walMu sync.Mutex
	// checkpointMu serializes whole POST /checkpoint requests (the snapshot
	// streaming runs outside walMu so mutations continue meanwhile).
	checkpointMu sync.Mutex
	// walFatal is called when a WAL append fails after the mutation was
	// already applied in memory; continuing would ack mutations the log
	// cannot replay. Overridable in tests.
	walFatal func(err error)

	// Cumulative incremental-checkpoint economy since process start.
	ckptPagesWritten atomic.Uint64
	ckptPagesReused  atomic.Uint64
	ckptBytesWritten atomic.Uint64
	ckptBytesReused  atomic.Uint64

	// refMu implements the drop drain: every data request holds it shared
	// for its whole duration, drop takes it exclusively — which waits for
	// all in-flight requests — and flips closed, after which lookups that
	// raced the drop answer 404 instead of touching freed state.
	refMu  sync.RWMutex
	closed bool
}

// storage is what bring-up established for a durable collection; all of it
// is nil/zero for an in-memory one. pager writes incremental checkpoints
// over the directory's shared page file, reusing every page that compares
// equal to the previous checkpoint's; its Prev is the footer of the base
// checkpoint recovery loaded (nil when there was none).
type storage struct {
	wal         *wal.Log
	walReplayed int
	pager       *persist.Pager
}

// newCollection wires a built index and its storage into a tenant.
func (s *Server) newCollection(name string, opts CollectionOptions, idx *invindex.Mutable, st storage) *Collection {
	c := &Collection{
		name:       name,
		cacheScope: s.nextCacheScope(name),
		opts:       opts,
		created:    time.Now(),
		idx:        idx,
		storage:    st,
		walFatal: func(err error) {
			fmt.Fprintf(s.cfg.logw(), "fatal: wal append failed after the mutation was applied: %v\n", err)
			os.Exit(1)
		},
	}
	if opts.Weight > 0 && opts.Weight < 1 {
		c.admission = admit.NewWeighted(s.admission, opts.Weight, s.cfg.MaxQueueWait)
	}
	return c
}

// ref pins the collection for one request; false means the collection was
// dropped between lookup and pin (the caller answers 404). unref releases.
func (c *Collection) ref() bool {
	c.refMu.RLock()
	if c.closed {
		c.refMu.RUnlock()
		return false
	}
	return true
}

func (c *Collection) unref() { c.refMu.RUnlock() }

// close drains and seals the collection: it blocks until every in-flight
// request has released its ref, then closes the WAL. Requests arriving
// after close see closed and answer 404. Idempotent.
func (c *Collection) close() error {
	c.refMu.Lock()
	already := c.closed
	c.closed = true
	c.refMu.Unlock()
	if already {
		return nil
	}
	if c.wal != nil {
		return c.wal.Close()
	}
	return nil
}

// generation is the query-cache validity stamp: the acked mutations. It only
// grows, so any mutation moves the generation and every cached entry stamped
// earlier stops matching — O(1) whole-cache invalidation. A compaction leaves
// every answer as it was and does not move it. Mutation handlers bump
// c.mutations after the index apply and before the ack, so a read issued
// after an acked mutation always sees a newer generation than any entry the
// mutation could have affected.
func (c *Collection) generation() uint64 {
	return c.mutations.Load()
}

// storageStatsJSON is the paged-storage (snapshot v3) section of /stats and
// GET /collections/{name}; absent for in-memory collections.
type storageStatsJSON struct {
	// Checkpoint page economy since process start: pages/bytes physically
	// written versus carried over unchanged from the previous checkpoint.
	CheckpointPagesWritten uint64 `json:"checkpointPagesWritten"`
	CheckpointPagesReused  uint64 `json:"checkpointPagesReused"`
	CheckpointBytesWritten uint64 `json:"checkpointBytesWritten"`
	CheckpointBytesReused  uint64 `json:"checkpointBytesReused"`
}

// storageStats snapshots the paged-storage state; nil for in-memory
// collections.
func (c *Collection) storageStats() *storageStatsJSON {
	if c.pager == nil {
		return nil
	}
	return &storageStatsJSON{
		CheckpointPagesWritten: c.ckptPagesWritten.Load(),
		CheckpointPagesReused:  c.ckptPagesReused.Load(),
		CheckpointBytesWritten: c.ckptBytesWritten.Load(),
		CheckpointBytesReused:  c.ckptBytesReused.Load(),
	}
}
