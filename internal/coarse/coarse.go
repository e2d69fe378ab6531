// Package coarse implements the paper's primary contribution (Section 4):
// a hybrid index that blends an inverted index with metric-space indexing.
//
// The collection is partitioned into disjoint clusters of rankings whose
// distance to a representative ranking (the medoid) is at most the
// partitioning threshold θC. Only the medoids are put into an inverted
// index; each partition is kept as a BK-tree. A query (q, θ) proceeds in
// two phases (Algorithm 1):
//
//	filtering:  probe the medoid inverted index with the relaxed threshold
//	            θ+θC — by Lemma 1 every partition that can contain a result
//	            has its medoid within θ+θC of q (triangle inequality);
//	validation: run the original θ-range query on each retrieved
//	            partition's BK-tree, which eliminates the false positives
//	            without exhaustively evaluating the partition.
//
// θC tunes the structure continuously between a plain inverted index
// (θC < 0: every ranking is its own medoid) and a single metric tree
// (θC = dmax: one partition holds everything); the cost model in package
// costmodel picks the sweet spot.
package coarse

import (
	"fmt"
	"time"

	"topk/internal/bktree"
	"topk/internal/invindex"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// PartitionStrategy selects how partitions and medoids are found.
type PartitionStrategy int

const (
	// BKTreeCut is the paper's default: build one BK-tree over the whole
	// collection and cut it at θC (Section 4.1, Figure 1). Partitions are
	// subtrees of the global tree and reuse it for validation.
	BKTreeCut PartitionStrategy = iota
	// RandomMedoids is the scheme of Chávez and Navarro the cost model
	// reasons with: pick an unassigned ranking as medoid, assign every
	// still-unassigned ranking within θC to it, repeat. Each partition gets
	// its own small BK-tree for validation.
	RandomMedoids
)

func (s PartitionStrategy) String() string {
	switch s {
	case BKTreeCut:
		return "bktree"
	case RandomMedoids:
		return "random-medoids"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// cluster is one partition with its validation structure.
type cluster struct {
	part bktree.Partition
	tree *bktree.Tree // global tree (BKTreeCut) or per-partition tree
}

// Index is the coarse hybrid index.
type Index struct {
	k        int
	n        int
	thetaC   int // raw partitioning threshold
	strategy PartitionStrategy
	rankings []ranking.Ranking
	clusters []cluster
	// medoids[i] is the ranking id of cluster i's medoid; the medoid
	// inverted index assigns id i to that ranking.
	medoids   []ranking.ID
	medoidIdx *invindex.Index
	// BuildDFC records the distance computations spent on construction
	// (BK-tree build + clustering), reported with Table 6.
	BuildDFC uint64
}

// Options configure construction.
type Options struct {
	// Strategy defaults to BKTreeCut.
	Strategy PartitionStrategy
	// Seed drives RandomMedoids' medoid choice; ignored by BKTreeCut.
	Seed int64
}

// New builds a coarse index over the collection with raw partitioning
// threshold thetaC (use ranking.RawThreshold to convert a normalized θC).
func New(rankings []ranking.Ranking, thetaC int, opts Options) (*Index, error) {
	ev := metric.New(nil)
	idx := &Index{
		thetaC:   thetaC,
		strategy: opts.Strategy,
		rankings: rankings,
		n:        len(rankings),
	}
	if len(rankings) == 0 {
		empty, err := invindex.New(nil)
		if err != nil {
			return nil, err
		}
		idx.medoidIdx = empty
		return idx, nil
	}
	idx.k = rankings[0].K()

	switch opts.Strategy {
	case BKTreeCut:
		tree, err := bktree.New(rankings, ev)
		if err != nil {
			return nil, err
		}
		for _, p := range tree.Partitions(thetaC) {
			idx.clusters = append(idx.clusters, cluster{part: p, tree: tree})
			idx.medoids = append(idx.medoids, p.Medoid)
		}
	case RandomMedoids:
		if err := idx.buildRandomMedoids(thetaC, opts.Seed, ev); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("coarse: unknown partition strategy %d", opts.Strategy)
	}

	medoidRankings := make([]ranking.Ranking, len(idx.medoids))
	for i, id := range idx.medoids {
		medoidRankings[i] = rankings[id]
	}
	mi, err := invindex.New(medoidRankings)
	if err != nil {
		return nil, err
	}
	idx.medoidIdx = mi
	idx.BuildDFC = ev.Calls()
	return idx, nil
}

// buildRandomMedoids implements the Chávez–Navarro fixed-radius clustering:
// deterministic pseudo-random medoid picks (xorshift on Seed) over the
// unassigned set, one linear assignment pass per medoid.
func (idx *Index) buildRandomMedoids(thetaC int, seed int64, ev *metric.Evaluator) error {
	n := len(idx.rankings)
	unassigned := make([]ranking.ID, n)
	for i := range unassigned {
		unassigned[i] = ranking.ID(i)
	}
	state := uint64(seed)*2685821657736338717 + 1442695040888963407
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	for len(unassigned) > 0 {
		mi := next(len(unassigned))
		medoid := unassigned[mi]
		unassigned[mi] = unassigned[len(unassigned)-1]
		unassigned = unassigned[:len(unassigned)-1]
		members := []ranking.ID{medoid}
		rest := unassigned[:0]
		for _, id := range unassigned {
			if ev.Distance(idx.rankings[medoid], idx.rankings[id]) <= thetaC {
				members = append(members, id)
			} else {
				rest = append(rest, id)
			}
		}
		unassigned = rest
		tree, err := bktree.NewSubset(idx.rankings, members, ev)
		if err != nil {
			return err
		}
		idx.clusters = append(idx.clusters, cluster{
			part: bktree.Partition{Medoid: medoid, Root: tree.Root, Size: len(members)},
			tree: tree,
		})
		idx.medoids = append(idx.medoids, medoid)
	}
	return nil
}

// K returns the ranking size.
func (idx *Index) K() int { return idx.k }

// Len returns the number of indexed rankings.
func (idx *Index) Len() int { return idx.n }

// NumPartitions returns the number of medoids/partitions.
func (idx *Index) NumPartitions() int { return len(idx.clusters) }

// ThetaC returns the raw partitioning threshold.
func (idx *Index) ThetaC() int { return idx.thetaC }

// Strategy returns the partitioning strategy used.
func (idx *Index) Strategy() PartitionStrategy { return idx.strategy }

// PartitionSizes returns the size of every partition.
func (idx *Index) PartitionSizes() []int {
	sizes := make([]int, len(idx.clusters))
	for i, c := range idx.clusters {
		sizes[i] = c.part.Size
	}
	return sizes
}

// Mode selects the filtering algorithm on the medoid inverted index.
type Mode int

const (
	// FV filters medoids with plain Filter-and-Validate ("Coarse").
	FV Mode = iota
	// FVDrop filters medoids with F&V+Drop ("Coarse+Drop"); list dropping
	// uses the safe Lemma 2 bound at the relaxed threshold θ+θC.
	FVDrop
)

// Stats reports the per-phase breakdown of one query, the quantities
// Figure 7 plots.
type Stats struct {
	FilterTime        time.Duration // probing the medoid inverted index
	ValidateTime      time.Duration // BK-tree range queries on partitions
	MedoidsRetrieved  int           // partitions passing the relaxed filter
	CandidateRankings int           // total size of retrieved partitions
	ExhaustiveScan    bool          // θ+θC ≥ dmax forced a full medoid scan
}

// Searcher carries per-goroutine query state.
type Searcher struct {
	idx  *Index
	ms   *invindex.Searcher
	kern *kernel.Kernel
}

// NewSearcher creates a searcher bound to idx.
func NewSearcher(idx *Index) *Searcher {
	return &Searcher{idx: idx, ms: invindex.NewSearcher(idx.medoidIdx), kern: kernel.New()}
}

// Query answers the range query (q, rawTheta) exactly; see QueryStats.
func (s *Searcher) Query(q ranking.Ranking, rawTheta int, ev *metric.Evaluator, mode Mode) ([]ranking.Result, error) {
	res, _, err := s.QueryStats(q, rawTheta, ev, mode)
	return res, err
}

// QueryStats answers the query and reports the phase breakdown.
// ev counts every Footrule evaluation: medoid validations during filtering
// plus BK-tree computations during partition validation — together the DFC
// of Figure 10 for Coarse/Coarse+Drop.
func (s *Searcher) QueryStats(q ranking.Ranking, rawTheta int, ev *metric.Evaluator, mode Mode) ([]ranking.Result, Stats, error) {
	var st Stats
	idx := s.idx
	if idx.n == 0 {
		return nil, st, nil
	}
	if err := ranking.Check(q, idx.k); err != nil {
		return nil, st, err
	}
	if rawTheta < 0 {
		return nil, st, nil
	}

	relaxed := rawTheta + idx.thetaC
	dmax := ranking.MaxDistance(idx.k)

	start := time.Now()
	var medoidHits []ranking.Result
	if relaxed >= dmax {
		// Lemma 1's precondition θ+θC < dmax is violated: medoids disjoint
		// from q could still govern result partitions but are invisible to
		// the inverted index. Fall back to scanning all medoids — correct,
		// and the natural degeneration toward "one metric tree" the paper
		// describes for large θC.
		st.ExhaustiveScan = true
		s.kern.Compile(q)
		for i, id := range idx.medoids {
			if d := s.kern.Distance(idx.rankings[id]); d <= relaxed {
				medoidHits = append(medoidHits, ranking.Result{ID: ranking.ID(i), Dist: d})
			}
		}
		ev.Add(uint64(len(idx.medoids)))
	} else {
		var err error
		switch mode {
		case FV:
			medoidHits, err = s.ms.FilterValidate(q, relaxed, ev)
		case FVDrop:
			medoidHits, err = s.ms.FilterValidateDrop(q, relaxed, ev, invindex.DropSafe)
		default:
			err = fmt.Errorf("coarse: unknown mode %d", mode)
		}
		if err != nil {
			return nil, st, err
		}
	}
	st.FilterTime = time.Since(start)
	st.MedoidsRetrieved = len(medoidHits)

	start = time.Now()
	var out []ranking.Result
	for _, mh := range medoidHits {
		c := idx.clusters[mh.ID]
		st.CandidateRankings += c.part.Size
		out = append(out, c.tree.SearchPartition(c.part, q, rawTheta, ev)...)
	}
	st.ValidateTime = time.Since(start)

	ranking.SortResults(out)
	return out, st, nil
}
