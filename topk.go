// Package topk is a library for ad-hoc similarity search over top-k
// rankings under Spearman's Footrule distance, implementing the EDBT 2015
// paper "The Sweet Spot between Inverted Indices and Metric-Space Indexing
// for Top-K-List Similarity Search" (Milchevski, Anand, Michel).
//
// Given a collection of fixed-size, duplicate-free top-k lists, every index
// in this package answers range queries exactly: all rankings within a
// normalized Footrule distance θ ∈ [0,1] of the query. The flagship
// structure is the CoarseIndex — a hybrid that clusters near-duplicate
// rankings into BK-tree partitions around medoids and keeps only the
// medoids in an inverted index, with a cost model that picks the
// partitioning threshold automatically (AutoTune). Classic alternatives
// (plain and blocked inverted indices, BK-, M- and VP-trees, the
// AdaptSearch prefix filter) are provided both as baselines and because
// each has a regime where it wins; see the package examples and README.
// HybridIndex is the library's serving engine: the fully mutable
// InvertedIndex with F&V+Drop for range queries and a native posting-list
// pass for KNN, plus plan counters and a Force switch onto an AdaptSearch
// prefix filter built on demand — measured, the inverted index is the faster
// of the two across the paper's query range, so nothing is routed there
// unforced.
//
// All Search methods are safe for concurrent use and run in parallel: the
// per-query scratch state of every index lives in an internal sync.Pool, so
// any number of goroutines can query one shared index without contending on
// a lock. Distance-call accounting is atomic. The two mutable kinds,
// InvertedIndex and HybridIndex, wrap internal/invindex.Mutable — the index
// cmd/topkserve builds directly, one per collection — and implement MutableIndex:
// Insert, Delete and Update with stable external IDs, tombstone filtering on
// the query path and synchronous compaction once tombstones pass a ratio of
// the id space, with writers briefly excluded from readers by an RWMutex. The
// paper baselines (CoarseIndex, BlockedIndex, the metric trees and
// StaticInvertedIndex's F&V and ListMerge) are read-only and take no lock at
// all.
package topk

import (
	"fmt"

	"topk/internal/bktree"
	"topk/internal/blocked"
	"topk/internal/coarse"
	"topk/internal/costmodel"
	"topk/internal/invindex"
	"topk/internal/mtree"
	"topk/internal/ranking"
	"topk/internal/stats"
	"topk/internal/vptree"
)

// Ranking is a fixed-size top-k list of item ids; index 0 is the top rank.
type Ranking = ranking.Ranking

// Item identifies a ranked item.
type Item = ranking.Item

// ID identifies a ranking inside an indexed collection (its position in
// the slice passed to the constructor).
type ID = ranking.ID

// Result is one query answer: the ranking's ID and its raw (integer)
// Footrule distance to the query.
type Result = ranking.Result

// Distance returns the raw Spearman's Footrule distance between two
// rankings of the same size k, in [0, k(k+1)].
func Distance(a, b Ranking) int { return ranking.Footrule(a, b) }

// NormalizedDistance returns the Footrule distance normalized into [0, 1].
func NormalizedDistance(a, b Ranking) float64 { return ranking.NormalizedFootrule(a, b) }

// KendallTau returns the top-k Kendall tau distance (optimistic variant,
// penalty 0) between two rankings of the same size.
func KendallTau(a, b Ranking) int { return ranking.KendallTau(a, b) }

// MaxDistance returns the maximum Footrule distance k(k+1) of size-k
// rankings.
func MaxDistance(k int) int { return ranking.MaxDistance(k) }

// ParseRanking parses "[1, 2, 3]", "1,2,3" or "1 2 3".
func ParseRanking(s string) (Ranking, error) { return ranking.Parse(s) }

// Index is the common query interface of every structure in this package.
type Index interface {
	// Search returns all indexed rankings within normalized Footrule
	// distance theta of q, sorted by ID, with exact distances.
	Search(q Ranking, theta float64) ([]Result, error)
	// Len returns the number of indexed rankings.
	Len() int
	// K returns the ranking size.
	K() int
	// DistanceCalls returns the cumulative number of Footrule evaluations
	// performed by queries since construction (the paper's DFC measure).
	DistanceCalls() uint64
}

func validateCollection(rankings []Ranking) (int, error) {
	if len(rankings) == 0 {
		return 0, fmt.Errorf("topk: empty collection")
	}
	k := max(rankings[0].K(), 1) // a ranking holds at least one item
	for i, r := range rankings {
		if err := ranking.Check(r, k); err != nil {
			return 0, fmt.Errorf("topk: ranking %d: %w", i, err)
		}
	}
	return k, nil
}

// ---------------------------------------------------------------------------
// CoarseIndex
// ---------------------------------------------------------------------------

// CoarseIndex is the paper's hybrid index: near-duplicate rankings are
// grouped into partitions of radius θC around medoid rankings; only the
// medoids live in an inverted index; partitions are validated by BK-trees.
//
// It answers through the shared query half (see queryHalf). Like the paper's
// structure — whose §5 cost model cuts the partitions once, at θC — it is
// built over a static collection and has no mutating operations, so Search
// takes no lock at all.
type CoarseIndex struct {
	queryHalf
	idx    *coarse.Index
	thetaC float64
}

// CoarseOption configures NewCoarseIndex.
type CoarseOption func(*coarseConfig)

type coarseConfig struct {
	thetaC     float64
	autoTune   bool
	maxTheta   float64
	randMedoid bool
	seed       int64
	drop       bool
}

// WithThetaC fixes the normalized partitioning threshold θC (default 0.5,
// the paper's setting for query thresholds up to 0.3).
func WithThetaC(thetaC float64) CoarseOption {
	return func(c *coarseConfig) { c.thetaC = thetaC; c.autoTune = false }
}

// WithAutoTune lets the Section 5 cost model choose θC for the largest
// query threshold the application will use. This is the paper's headline
// "sweet spot" feature.
func WithAutoTune(maxTheta float64) CoarseOption {
	return func(c *coarseConfig) { c.autoTune = true; c.maxTheta = maxTheta }
}

// WithRandomMedoids switches partitioning from the BK-tree cut to the
// Chávez–Navarro random-medoid scheme (the clustering the cost model
// reasons about).
func WithRandomMedoids(seed int64) CoarseOption {
	return func(c *coarseConfig) { c.randMedoid = true; c.seed = seed }
}

// WithListDropping enables the F&V+Drop filtering on the medoid index
// ("Coarse+Drop"). Pair it with a small θC (the paper uses 0.06).
func WithListDropping() CoarseOption {
	return func(c *coarseConfig) { c.drop = true }
}

// NewCoarseIndex builds a coarse index over the collection.
func NewCoarseIndex(rankings []Ranking, opts ...CoarseOption) (*CoarseIndex, error) {
	k, err := validateCollection(rankings)
	if err != nil {
		return nil, err
	}
	cfg := coarseConfig{thetaC: 0.5}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.autoTune {
		if cfg.thetaC, err = tuneThetaC(rankings, k, cfg.maxTheta); err != nil {
			return nil, err
		}
	}
	copts := coarse.Options{Seed: cfg.seed}
	if cfg.randMedoid {
		copts.Strategy = coarse.RandomMedoids
	}
	mode := coarse.FV
	if cfg.drop {
		mode = coarse.FVDrop
	}
	idx, err := coarse.New(rankings, ranking.RawThreshold(cfg.thetaC, k), copts)
	if err != nil {
		return nil, err
	}
	c := &CoarseIndex{idx: idx, thetaC: cfg.thetaC}
	c.backend = coarseBackend{idx: idx, pool: newPool(idx, coarse.NewSearcher), mode: mode}
	return c, nil
}

// tuneThetaC runs the cost model end to end: sample the distance CDF, fit
// the Zipf skew, calibrate micro-costs, and minimize over the default grid.
func tuneThetaC(rankings []Ranking, k int, maxTheta float64) (float64, error) {
	cdf := stats.SampleDistances(rankings, 20000, 1)
	freqs := stats.ItemFrequencies(rankings)
	s, err := stats.FitZipfHead(freqs, 500)
	if err != nil {
		return 0, fmt.Errorf("topk: autotune: %w", err)
	}
	m, err := costmodel.New(len(rankings), k, len(freqs), s, cdf)
	if err != nil {
		return 0, fmt.Errorf("topk: autotune: %w", err)
	}
	m.Calibrate(1)
	raw := m.OptimalThetaC(ranking.RawThreshold(maxTheta, k), costmodel.DefaultGrid(k))
	return float64(raw) / float64(ranking.MaxDistance(k)), nil
}

// ThetaC reports the (possibly auto-tuned) partitioning threshold in use.
func (c *CoarseIndex) ThetaC() float64 { return c.thetaC }

// NumPartitions reports how many medoid partitions the index holds.
func (c *CoarseIndex) NumPartitions() int { return c.idx.NumPartitions() }

// ---------------------------------------------------------------------------
// InvertedIndex
// ---------------------------------------------------------------------------

// InvertedIndex is invindex.Mutable, the index cmd/topkserve serves, under
// the library's name: range queries by F&V+Drop, the fastest of the paper's
// inverted-index algorithms (§7, Figs. 8–9), KNN by the native posting-list
// pass. It is mutable: posting lists stay id-sorted because internal ids
// grow monotonically, and every query skips tombstoned postings until
// compaction purges them. The paper's F&V and ListMerge, which answer the
// same for more work, are StaticInvertedIndex.
type InvertedIndex struct{ *invindex.Mutable }

// InvOption configures NewInvertedIndex: it sets the compaction ratio.
type InvOption func(ratio *float64)

// WithCompactionRatio sets the tombstone fraction of the inner id space
// above which Delete/Update trigger an automatic rebuild over the surviving
// rankings (default DefaultCompactionRatio). A ratio ≤ 0 disables automatic
// compaction; Compact can still be called explicitly.
func WithCompactionRatio(ratio float64) InvOption {
	return func(r *float64) { *r = ratio }
}

// NewInvertedIndex builds a rank-augmented inverted index.
func NewInvertedIndex(rankings []Ranking, opts ...InvOption) (*InvertedIndex, error) {
	if len(rankings) == 0 {
		return nil, fmt.Errorf("topk: empty collection")
	}
	return NewInvertedIndexFromSlots(rankings, opts...)
}

// NewInvertedIndexFromSlots builds an inverted index from an external-id
// slot array as produced by (*InvertedIndex).Slots or a persist snapshot:
// the ranking at position i gets external ID i, and nil entries are retired
// IDs that stay retired. With zero live slots the first Insert defines k.
func NewInvertedIndexFromSlots(slots []Ranking, opts ...InvOption) (*InvertedIndex, error) {
	ratio := DefaultCompactionRatio
	for _, o := range opts {
		o(&ratio)
	}
	m, err := invindex.NewMutable(slots, 0, ratio)
	if err != nil {
		return nil, err
	}
	return &InvertedIndex{m}, nil
}

// Algorithm selects the paper algorithm a StaticInvertedIndex answers with:
// FilterValidate, the baseline F&V (§4), merges all k lists and validates
// each candidate; ListMerge (§7) merges the id-sorted rank-augmented lists,
// finalizing exact distances on the fly, whatever the threshold.
type Algorithm int

// The algorithms of a StaticInvertedIndex.
const (
	FilterValidate Algorithm = iota
	ListMerge
)

// StaticInvertedIndex is the paper's rank-augmented inverted index over a
// static collection, answering range queries with F&V or ListMerge — the
// baselines InvertedIndex's F&V+Drop answers identically with less work.
// Like the other paper baselines it has no mutating operations, so Search
// takes no lock; KNN runs the expanding-radius reduction over the range
// search.
type StaticInvertedIndex struct {
	queryHalf
}

// NewStaticInvertedIndex builds a static inverted index answering with alg.
func NewStaticInvertedIndex(rankings []Ranking, alg Algorithm) (*StaticInvertedIndex, error) {
	if _, err := validateCollection(rankings); err != nil {
		return nil, err
	}
	b := invBackend{search: (*invindex.Searcher).FilterValidate}
	switch alg {
	case FilterValidate:
	case ListMerge:
		b.search = (*invindex.Searcher).ListMerge
	default:
		return nil, fmt.Errorf("topk: unknown algorithm %d", alg)
	}
	idx, err := invindex.New(rankings)
	if err != nil {
		return nil, err
	}
	b.idx, b.pool = idx, newPool(idx, invindex.NewSearcher)
	return &StaticInvertedIndex{queryHalf{backend: b}}, nil
}

// ---------------------------------------------------------------------------
// BlockedIndex
// ---------------------------------------------------------------------------

// BlockedIndex is the inverted index with rank-sorted lists, per-rank block
// offsets and NRA-style early accept/reject (Blocked+Prune[+Drop]).
// BlockedIndex has no mutating operations, so Search takes no lock at all:
// per-query scratch comes from the pool, distance accounting is atomic.
type BlockedIndex struct {
	queryHalf
	mode blocked.Mode
}

// BlockedOption configures NewBlockedIndex.
type BlockedOption func(*BlockedIndex)

// WithBlockedDrop additionally drops whole lists (Blocked+Prune+Drop).
func WithBlockedDrop() BlockedOption {
	return func(b *BlockedIndex) { b.mode = blocked.PruneDrop }
}

// NewBlockedIndex builds the blocked index. Its bounds track ranks in 32-bit
// masks, so rankings longer than 32 items are refused.
func NewBlockedIndex(rankings []Ranking, opts ...BlockedOption) (*BlockedIndex, error) {
	if _, err := validateCollection(rankings); err != nil {
		return nil, err
	}
	idx, err := blocked.New(rankings)
	if err != nil {
		return nil, err
	}
	b := &BlockedIndex{mode: blocked.Prune}
	for _, o := range opts {
		o(b)
	}
	b.backend = blockedBackend{idx: idx, pool: newPool(idx, blocked.NewSearcher), mode: b.mode}
	return b, nil
}

// ---------------------------------------------------------------------------
// Metric trees
// ---------------------------------------------------------------------------

// TreeKind selects the metric tree structure.
type TreeKind int

const (
	// BKTree is the Burkhard–Keller tree (the paper's choice for discrete
	// metrics and the coarse index's partition representation).
	BKTree TreeKind = iota
	// MTree is the balanced M-tree of Ciaccia et al.
	MTree
	// VPTree is the vantage-point tree.
	VPTree
)

// MetricTree is a pure metric-space index over the collection: one BK-, M- or
// VP-tree, whose range walk reports every hit with the distance it computed.
// The trees are immutable after construction, so Search is lock-free; the
// only per-query state is the counting evaluator.
type MetricTree struct {
	queryHalf
}

// NewMetricTree builds a metric tree of the given kind.
func NewMetricTree(rankings []Ranking, kind TreeKind) (*MetricTree, error) {
	if _, err := validateCollection(rankings); err != nil {
		return nil, err
	}
	var (
		b   treeBackend
		err error
	)
	switch kind {
	case BKTree:
		b.tree, err = bktree.New(rankings, nil)
	case MTree:
		b.tree, err = mtree.New(rankings, nil)
	case VPTree:
		b.tree, err = vptree.New(rankings, nil)
	default:
		err = fmt.Errorf("topk: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return &MetricTree{queryHalf{backend: b}}, nil
}
