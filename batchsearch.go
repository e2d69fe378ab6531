package topk

import (
	"topk/internal/batch"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// SearchBatch answers every query of the batch at one threshold with the
// paper's Section 8 batch processing (internal/batch): the batch is
// clustered into medoid groups, the index is probed once per group at the
// triangle-relaxed threshold, and each member query resolves against only
// its group's candidates — batches of reformulated queries share most of
// their filtering work. Results are exactly what per-query Search would
// return.
func (ii *InvertedIndex) SearchBatch(queries []Ranking, theta float64) ([][]Result, error) {
	ii.mu.RLock()
	defer ii.mu.RUnlock()
	// Clamped so the batch path stays byte-identical to Search at θ = 1
	// (the batch processor's fallback scan would otherwise also return the
	// distance-dmax tail that posting lists cannot see).
	raw := clampRawTheta(ranking.RawThreshold(theta, ii.k), ii.k)
	// Cluster the batch at half the query threshold: tight enough that the
	// relaxed probe threshold θ+rC stays close to θ, loose enough that
	// reformulated near-duplicate queries land in one group. Any radius is
	// exact; this one balances probe cost against sharing. The searcher
	// comes from the facade's pool, so the batch hot path allocates no
	// O(n) scratch.
	s := ii.inv.pool.Get()
	defer ii.inv.pool.Put(s)
	p := batch.NewProcessorWith(ii.inv.idx, s)
	ev := metric.New(nil)
	res, _, err := p.Process(queries, raw, raw/2, ev)
	ii.calls.Add(ev.Calls())
	if err != nil {
		return nil, err
	}
	for i := range res {
		ii.ids.remapSearch(res[i])
	}
	return res, nil
}
