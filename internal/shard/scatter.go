package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"topk/internal/ranking"
)

// QueryTrace describes where one fanned-out query spent its time and work.
type QueryTrace struct {
	// FanoutMicros is the scatter phase: dispatch until the slowest shard
	// answered. MergeMicros is the gather phase: combining the answers.
	FanoutMicros float64 `json:"fanoutMicros"`
	MergeMicros  float64 `json:"mergeMicros"`
	// Backends lists the distinct backends that answered, in shard order: one
	// name for a standalone kind, up to two for the hybrid.
	Backends []string `json:"backends,omitempty"`
	// DistanceCalls is the query's Footrule-evaluation cost summed over the
	// shards (0 on paths that evaluate no distance function: ListMerge and the
	// native posting-list KNN).
	DistanceCalls uint64 `json:"distanceCalls"`
}

// shardAnswer is one shard's part of a scatter: a single-query answer (res)
// or a batch's answers, one per member (batch), with their attribution.
type shardAnswer struct {
	res     []ranking.Result
	batch   [][]ranking.Result
	backend string
	calls   uint64
	err     error
}

// scatter is the package's one scatter-gather. task(i) queries shard i;
// shard 0 runs on the caller's goroutine, the others on their own. ctx is
// checked on entry and before each shard task, so an abandoned request stops
// scheduling shard work; a task that has already started runs to completion
// (the cancellation grain is one shard task). Every task is one observation
// of its shard's latency histogram and has its shard-local ids remapped to
// global ones. When every shard answered, the attribution is folded into the
// trace and gather combines the answers in shard order; the scatter and
// gather phases feed the fanout and merge histograms either way.
func (s *Sharded) scatter(ctx context.Context, task func(i int) shardAnswer, gather func(parts []shardAnswer)) (QueryTrace, error) {
	var tr QueryTrace
	if err := ctx.Err(); err != nil {
		return tr, err
	}
	parts := make([]shardAnswer, len(s.shards))
	fanStart := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				parts[i].err = err
				return
			}
			parts[i] = s.runShard(i, task)
		}(i)
	}
	parts[0] = s.runShard(0, task)
	wg.Wait()
	fanout := time.Since(fanStart)
	s.fanout.Observe(fanout)
	tr.FanoutMicros = float64(fanout.Nanoseconds()) / 1e3

	mergeStart := time.Now()
	err := firstError(parts)
	if err == nil {
		for _, p := range parts {
			tr.DistanceCalls += p.calls
			if p.backend != "" && !slices.Contains(tr.Backends, p.backend) {
				tr.Backends = append(tr.Backends, p.backend)
			}
		}
		gather(parts)
	}
	merge := time.Since(mergeStart)
	s.merge.Observe(merge)
	tr.MergeMicros = float64(merge.Nanoseconds()) / 1e3
	return tr, err
}

// runShard times one shard task and remaps its ids to global.
func (s *Sharded) runShard(i int, task func(i int) shardAnswer) shardAnswer {
	start := time.Now()
	a := task(i)
	s.hists[i].Observe(time.Since(start))
	if a.err != nil {
		return shardAnswer{err: a.err}
	}
	if off := s.offsets[i]; off != 0 {
		for j := range a.res {
			a.res[j].ID += off
		}
		for _, res := range a.batch {
			for j := range res {
				res[j].ID += off
			}
		}
	}
	return a
}

// firstError aggregates per-shard errors, preferring a real failure over a
// cancellation: when the context dies mid-fan-out some tasks report bare
// ctx.Err(), and surfacing that instead of the failure that actually aborted
// the work would mask it.
func firstError(parts []shardAnswer) error {
	var ctxErr error
	for i, p := range parts {
		switch err := p.err; {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return ctxErr
}

// concat joins per-shard answers in shard order — with contiguous id-range
// sharding and id-sorted per-shard results, the globally sorted result set.
// pick selects the answer of one shard.
func concat(parts []shardAnswer, pick func(p *shardAnswer) []ranking.Result) []ranking.Result {
	total := 0
	for i := range parts {
		total += len(pick(&parts[i]))
	}
	if total == 0 {
		return nil
	}
	out := make([]ranking.Result, 0, total)
	for i := range parts {
		out = append(out, pick(&parts[i])...)
	}
	return out
}
