package invindex

import (
	"encoding/binary"
	"strconv"

	"topk/internal/metric"
	"topk/internal/ranking"
)

// Minimal is the "Minimal F&V" oracle of Section 7: for every
// (query, threshold) pair of a known workload it has materialized a single
// index list containing exactly the true result rankings. Answering a query
// costs one lookup plus one Footrule computation per true result — a lower
// bound for any filter-and-validate algorithm, used to calibrate how close
// the real algorithms get.
type Minimal struct {
	k        int
	rankings []ranking.Ranking
	byKey    map[string][]ranking.ID
}

// queryKey fingerprints a (query, rawTheta) pair.
func queryKey(q ranking.Ranking, rawTheta int) string {
	buf := make([]byte, 4*len(q))
	for i, it := range q {
		binary.LittleEndian.PutUint32(buf[4*i:], it)
	}
	return string(buf) + "/" + strconv.Itoa(rawTheta)
}

// BuildMinimal materializes the exact result lists for every query at every
// threshold by brute force (construction cost is irrelevant: the structure
// is an oracle, not a practical index).
func BuildMinimal(rankings []ranking.Ranking, queries []ranking.Ranking, rawThetas []int) *Minimal {
	m := &Minimal{rankings: rankings, byKey: make(map[string][]ranking.ID, len(queries)*len(rawThetas))}
	if len(rankings) > 0 {
		m.k = rankings[0].K()
	}
	maxTheta := 0
	for _, t := range rawThetas {
		if t > maxTheta {
			maxTheta = t
		}
	}
	for _, q := range queries {
		// One scan per query, bucketed by distance, serves all thresholds.
		dists := make([]int, 0, 64)
		ids := make([]ranking.ID, 0, 64)
		for id, r := range rankings {
			if d := ranking.Footrule(q, r); d <= maxTheta {
				dists = append(dists, d)
				ids = append(ids, ranking.ID(id))
			}
		}
		for _, t := range rawThetas {
			var list []ranking.ID
			for i, d := range dists {
				if d <= t {
					list = append(list, ids[i])
				}
			}
			m.byKey[queryKey(q, t)] = list
		}
	}
	return m
}

// Query answers a workload query: one materialized-list lookup plus a
// Footrule validation per member (counted as DFC, as the paper does).
// Queries outside the materialized workload return ok=false.
func (m *Minimal) Query(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) ([]ranking.Result, bool) {
	list, ok := m.byKey[queryKey(q, rawTheta)]
	if !ok {
		return nil, false
	}
	out := make([]ranking.Result, 0, len(list))
	for _, id := range list {
		d := ev.Distance(q, m.rankings[id])
		out = append(out, ranking.Result{ID: id, Dist: d})
	}
	ranking.SortResults(out)
	return out, true
}

// Lists returns the number of materialized lists (for size accounting).
func (m *Minimal) Lists() int { return len(m.byKey) }
