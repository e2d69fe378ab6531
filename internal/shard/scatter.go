package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"topk/internal/ranking"
)

// QueryTrace is empty: nothing reads a fanned-out query's attribution any
// more. It remains as SearchTracedContext's result type, which benchmark/
// compiles against.
type QueryTrace struct{}

// shardAnswer is one shard's part of a scatter: a single-query answer (res)
// or a batch's answers, one per member (batch).
type shardAnswer struct {
	res   []ranking.Result
	batch [][]ranking.Result
	err   error
}

// SearchTracedContext fans the query out to every shard in parallel and
// concatenates the per-shard answers in shard order — with contiguous
// id-range sharding and id-sorted per-shard results, the globally sorted
// result set. See scatter for how ctx cuts the search short.
func (s *Sharded) SearchTracedContext(ctx context.Context, q ranking.Ranking, theta float64) ([]ranking.Result, QueryTrace, error) {
	var out []ranking.Result
	err := s.scatter(ctx,
		func(i int) shardAnswer {
			res, _, _, err := s.shards[i].SearchTraced(q, theta)
			return shardAnswer{res: res, err: err}
		},
		func(parts []shardAnswer) {
			out = concat(parts, func(p *shardAnswer) []ranking.Result { return p.res })
		})
	return out, QueryTrace{}, err
}

// SearchBatchContext answers many queries at the same threshold, the i-th
// result slice answering queries[i], as one scatter: each shard task answers
// the members in order on its own sub-index, and each member's per-shard
// answers concatenate like SearchTracedContext's. The batch's context is
// checked before every member and the first member error cancels it, so a
// dead client or a decided outcome stops every shard at its next member.
func (s *Sharded) SearchBatchContext(ctx context.Context, queries []ranking.Ranking, theta float64) ([][]ranking.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var out [][]ranking.Result
	err := s.scatter(ctx,
		func(i int) shardAnswer {
			a := shardAnswer{batch: make([][]ranking.Result, len(queries))}
			for qi, q := range queries {
				if err := ctx.Err(); err != nil {
					return shardAnswer{err: err}
				}
				res, _, _, err := s.shards[i].SearchTraced(q, theta)
				if err != nil {
					cancel()
					return shardAnswer{err: fmt.Errorf("query %d: %w", qi, err)}
				}
				a.batch[qi] = res
			}
			return a
		},
		func(parts []shardAnswer) {
			out = make([][]ranking.Result, len(queries))
			for qi := range out {
				out[qi] = concat(parts, func(p *shardAnswer) []ranking.Result { return p.batch[qi] })
			}
		})
	return out, err
}

// SearchBatchSharedContext does nothing: it reports ok=false, so a caller
// takes its SearchBatchContext fallback.
//
// Deprecated: it answered uniform-threshold batches with the paper's
// Section 8 shared-candidate processor, which lost to per-query F&V+Drop at
// every measured threshold. It remains only until benchmark/ stops calling it.
func (s *Sharded) SearchBatchSharedContext(context.Context, []ranking.Ranking, float64) (res [][]ranking.Result, ok bool, err error) {
	return nil, false, nil
}

// scatter is the package's one scatter-gather. task(i) queries shard i;
// shard 0 runs on the caller's goroutine, the others on their own. ctx is
// checked on entry and before each shard task, so an abandoned request stops
// scheduling shard work; a task that has already started runs to completion.
// Each task has its shard-local ids remapped to global ones. When every shard
// answered, gather combines the answers in shard order.
func (s *Sharded) scatter(ctx context.Context, task func(i int) shardAnswer, gather func(parts []shardAnswer)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	parts := make([]shardAnswer, len(s.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				parts[i].err = err
				return
			}
			parts[i] = s.runShard(i, task)
		}()
	}
	parts[0] = s.runShard(0, task)
	wg.Wait()
	if err := firstError(parts); err != nil {
		return err
	}
	gather(parts)
	return nil
}

// runShard runs one shard task and remaps its ids to global.
func (s *Sharded) runShard(i int, task func(i int) shardAnswer) shardAnswer {
	a := task(i)
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

// concat joins per-shard answers in shard order. pick selects the answer of
// one shard.
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
