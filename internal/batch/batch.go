// Package batch implements the paper's outlook (Section 8): processing
// large batches of similarity queries by partitioning the query batch
// itself into medoid groups, "similar to the coarse indexing" of the data
// side.
//
// The batch is clustered with a BK-tree cut at a batch radius rC. For each
// query cluster, the underlying inverted index is probed once with the
// medoid query and the relaxed threshold θ+rC; by the triangle inequality
// the retrieved candidate set is a superset of every member's result set.
// Each member query is then resolved against only those candidates, with a
// second triangle pruning — |d(qm,τ) − d(qm,q)| > θ rules τ out without a
// distance computation, because both distances to the medoid are already
// known. Batches of reformulated queries (the realistic workload) share
// most of their filtering work.
package batch

import (
	"fmt"

	"topk/internal/bktree"
	"topk/internal/invindex"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// Stats reports how much work batching saved.
type Stats struct {
	Clusters       int
	IndexProbes    int // == Clusters (one probe per cluster)
	TrianglePruned int // candidate pairs skipped by the medoid triangle
	Validated      int // exact distance computations in resolution
}

// Processor answers query batches over an inverted index.
type Processor struct {
	idx *invindex.Index
	s   *invindex.Searcher
	k   int
}

// NewProcessor creates a batch processor for the collection behind idx.
func NewProcessor(idx *invindex.Index) *Processor {
	return NewProcessorWith(idx, invindex.NewSearcher(idx))
}

// NewProcessorWith creates a batch processor reusing a caller-provided
// searcher bound to idx (e.g. drawn from the topk facade's pool), avoiding the
// O(n) scratch allocation of a fresh searcher. The processor owns the
// searcher for its lifetime; one processor serves one batch at a time.
func NewProcessorWith(idx *invindex.Index, s *invindex.Searcher) *Processor {
	return &Processor{idx: idx, s: s, k: idx.K()}
}

// Process answers every query of the batch at raw threshold rawTheta,
// clustering the batch at raw radius batchRadius. The i-th result slice
// answers queries[i]. ev counts every Footrule evaluation (clustering,
// filtering and resolution).
func (p *Processor) Process(queries []ranking.Ranking, rawTheta, batchRadius int, ev *metric.Evaluator) ([][]ranking.Result, Stats, error) {
	var st Stats
	if ev == nil {
		ev = metric.New(nil)
	}
	if p.idx.Len() == 0 || len(queries) == 0 {
		return make([][]ranking.Result, len(queries)), st, nil
	}
	for i, q := range queries {
		if q.K() != p.k {
			return nil, st, fmt.Errorf("batch: query %d has size %d, want %d: %w",
				i, q.K(), p.k, ranking.ErrSizeMismatch)
		}
		if err := q.Validate(); err != nil {
			return nil, st, fmt.Errorf("batch: query %d: %w", i, err)
		}
	}
	out := make([][]ranking.Result, len(queries))
	if rawTheta < 0 {
		return out, st, nil
	}

	// Cluster the batch: BK-tree over the queries, cut at batchRadius.
	qt, err := bktree.New(queries, ev)
	if err != nil {
		return nil, st, err
	}
	parts := qt.Partitions(batchRadius)
	st.Clusters = len(parts)

	dmax := ranking.MaxDistance(p.k)
	for _, part := range parts {
		medoid := queries[part.Medoid]
		relaxed := rawTheta + batchRadius
		// One index probe per cluster.
		var cands []ranking.Result
		if relaxed >= dmax {
			// Degenerate: the relaxed ball covers disjoint rankings the
			// inverted index cannot see; scan instead (skipping tombstones,
			// which FilterValidate would have filtered).
			for id, r := range p.idx.Rankings() {
				if p.idx.Deleted(ranking.ID(id)) {
					continue
				}
				if d := ev.Distance(medoid, r); d <= relaxed {
					cands = append(cands, ranking.Result{ID: ranking.ID(id), Dist: d})
				}
			}
		} else {
			cands, err = p.s.FilterValidate(medoid, relaxed, ev)
			if err != nil {
				return nil, st, err
			}
		}
		st.IndexProbes++

		// Resolve each member against the cluster candidate set.
		for _, qi := range part.Members() {
			q := queries[qi]
			var dQM int
			if qi == part.Medoid {
				dQM = 0
			} else {
				dQM = ev.Distance(medoid, q)
			}
			var res []ranking.Result
			for _, c := range cands {
				// Triangle: |d(qm,τ) − d(qm,q)| ≤ d(q,τ); if the left side
				// already exceeds θ, τ cannot qualify.
				gap := c.Dist - dQM
				if gap < 0 {
					gap = -gap
				}
				if gap > rawTheta {
					st.TrianglePruned++
					continue
				}
				st.Validated++
				if d := ev.Distance(q, p.idx.Ranking(c.ID)); d <= rawTheta {
					res = append(res, ranking.Result{ID: c.ID, Dist: d})
				}
			}
			ranking.SortResults(res)
			out[qi] = res
		}
	}
	return out, st, nil
}
