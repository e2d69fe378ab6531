package shard

import (
	"context"
	"slices"
	"sync"
	"time"

	"topk/internal/ranking"
)

// TracedSearcher is the optional sub-index interface behind SearchTraced:
// kinds that can attribute a single query to the concrete backend that
// answered it and report its distance-call cost (topk.HybridIndex, whose
// planner picks a backend per query). Sub-indices without it still work —
// their shards simply contribute no attribution.
type TracedSearcher interface {
	// SearchTraced is Search plus attribution: the name of the backend
	// that answered and the number of Footrule evaluations this query cost.
	SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, string, uint64, error)
}

// QueryTrace describes where one fanned-out query spent its time and work.
type QueryTrace struct {
	// FanoutMicros is the scatter phase: dispatch until the slowest shard
	// answered. MergeMicros is the gather phase: concatenating answers.
	FanoutMicros float64 `json:"fanoutMicros"`
	MergeMicros  float64 `json:"mergeMicros"`
	// Backends lists the distinct backends that answered, in shard order.
	// Empty when no sub-index implements TracedSearcher.
	Backends []string `json:"backends,omitempty"`
	// DistanceCalls is the query's Footrule-evaluation cost summed over
	// attributing shards; 0 when no shard attributes.
	DistanceCalls uint64 `json:"distanceCalls"`
}

// attribute folds the per-shard attribution into the trace: the distinct
// answering backends in shard order and the summed distance calls.
func (tr *QueryTrace) attribute(backends []string, calls []uint64) {
	for i, b := range backends {
		tr.DistanceCalls += calls[i]
		if b != "" && !slices.Contains(tr.Backends, b) {
			tr.Backends = append(tr.Backends, b)
		}
	}
}

// SearchTraced is Search with a per-query trace: the same scatter-gather
// (results are byte-identical to Search), plus phase timings and — when the
// sub-indices support it — backend attribution and distance-call cost.
func (s *Sharded) SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, QueryTrace, error) {
	return s.SearchTracedContext(context.Background(), q, theta)
}

// SearchTracedContext is SearchTraced with cancellation: ctx is checked on
// entry and before each per-shard task, exactly like SearchContext.
func (s *Sharded) SearchTracedContext(ctx context.Context, q ranking.Ranking, theta float64) ([]ranking.Result, QueryTrace, error) {
	var tr QueryTrace
	if err := ctx.Err(); err != nil {
		return nil, tr, err
	}
	parts := make([][]ranking.Result, len(s.shards))
	backends := make([]string, len(s.shards))
	calls := make([]uint64, len(s.shards))
	errs := make([]error, len(s.shards))
	fanStart := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < len(s.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			parts[i], backends[i], calls[i], errs[i] = s.searchShardTraced(i, q, theta)
		}(i)
	}
	parts[0], backends[0], calls[0], errs[0] = s.searchShardTraced(0, q, theta)
	wg.Wait()
	fanoutDur := time.Since(fanStart)
	s.fanout.Observe(fanoutDur)
	tr.FanoutMicros = float64(fanoutDur.Nanoseconds()) / 1e3
	mergeStart := time.Now()
	defer func() {
		mergeDur := time.Since(mergeStart)
		s.merge.Observe(mergeDur)
		tr.MergeMicros = float64(mergeDur.Nanoseconds()) / 1e3
	}()
	if err := firstError(errs); err != nil {
		return nil, tr, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	tr.attribute(backends, calls)
	if total == 0 {
		return nil, tr, nil
	}
	out := make([]ranking.Result, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, tr, nil
}

// searchShardTraced queries one shard like searchShard, additionally
// capturing backend attribution when the sub-index supports it.
func (s *Sharded) searchShardTraced(i int, q ranking.Ranking, theta float64) ([]ranking.Result, string, uint64, error) {
	start := time.Now()
	var (
		res     []ranking.Result
		backend string
		calls   uint64
		err     error
	)
	if ts, ok := s.shards[i].(TracedSearcher); ok {
		res, backend, calls, err = ts.SearchTraced(q, theta)
	} else {
		res, err = s.shards[i].Search(q, theta)
	}
	s.hists[i].Observe(time.Since(start))
	if err != nil {
		return nil, "", 0, err
	}
	if off := s.offsets[i]; off != 0 {
		for j := range res {
			res[j].ID += off
		}
	}
	return res, backend, calls, nil
}
