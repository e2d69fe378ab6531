package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"topk"
	"topk/internal/adaptsearch"
	"topk/internal/admit"
	"topk/internal/invindex"
	"topk/internal/kernel"
	"topk/internal/knn"
	"topk/internal/metric"
	"topk/internal/qcache"
	"topk/internal/ranking"
	"topk/internal/shard"
	"topk/internal/wal"
)

// The onion replay pushes the first replayOps requests of a traced run
// through the layers below the HTTP handler in-process, one depth at a time,
// with a span around each public call:
//
//	depth 2  qcache.Get → admit.Acquire → shard.Sharded call → qcache.Put
//	         (mutations: wal.Log.Append → shard.Sharded mutation)
//	depth 3  HybridIndex.SearchTraced / NearestNeighbors, per shard
//	depth 4  the backend that call named, through its own package's searcher
//	         over the same shard slice
//	depth 5  kernel.Compile + Kernel.FootruleMany over as many ids as the
//	         backend made distance calls
//
// Depths 0 (socket) and 1 (handler) come from the live server: the client's
// own clock and the server's /debug/trace ring, joined by X-Request-ID.

// replayChunk is how many requests one depth handles before the next depth
// takes the same requests: large enough that a query's working set has left
// the CPU caches before the next depth repeats it, small enough that the
// mutations of a mixed list keep every depth on nearly the same collection.
const replayChunk = 256

// shardStack is what the depths below the router need of one shard.
type shardStack struct {
	hybrid *topk.HybridIndex
	store  *kernel.Store // the shard's slice, flat, for the kernel depth
	kern   *kernel.Kernel
	inv    *invindex.Searcher
	adapt  *adaptsearch.Searcher
}

// onion is the in-process stack of one workload.
type onion struct {
	e      *env
	w      *workload
	sh     *shard.Sharded
	shards []shardStack
	cache  *qcache.Cache
	global *admit.Controller
	tenant *admit.Controller
	log    *wal.Log // durable workloads only
	gen    uint64   // the collection generation the handler would stamp: acked mutations + rebuilds
	buildS float64

	// Accumulated over the replay, for the per-layer counters.
	dfc, results          uint64
	compileNs, validateNs []float64
}

// newOnion builds the same index the server builds — hybrid, two shards,
// calibrated — plus standalone instances of the two backends the planner
// routes to, over each shard's slice.
func newOnion(e *env, w *workload) (*onion, error) {
	ratio := topk.DefaultCompactionRatio
	if w.deltaRatio > 0 {
		ratio = w.deltaRatio
	}
	start := time.Now()
	sh, err := shard.New(e.rs, numShards, func(rs []ranking.Ranking) (shard.Index, error) {
		return topk.NewHybridIndexFromSlots(rs, topk.WithHybridMaxTheta(0.3),
			topk.WithHybridDeltaRatio(ratio), topk.WithHybridCalibration(calibrate))
	})
	if err != nil {
		return nil, err
	}
	capacity := int64(2 * runtime.GOMAXPROCS(0)) // the server's -max-concurrency default
	o := &onion{e: e, w: w, sh: sh, buildS: time.Since(start).Seconds(), cache: qcache.New(cacheEntries)}
	o.global = admit.New(capacity, 4*int(capacity), time.Second)
	o.tenant = admit.NewWeighted(o.global, 1, time.Second)
	for i := 0; i < sh.NumShards(); i++ {
		sub, off := sh.Shard(i)
		end := len(e.rs)
		if i+1 < sh.NumShards() {
			_, next := sh.Shard(i + 1)
			end = int(next)
		}
		slice := e.rs[off:end]
		store := kernel.NewStore(slice) // flat, like the arena a hybrid epoch shares among its backends
		inv, err := invindex.NewFromStore(store)
		if err != nil {
			return nil, err
		}
		ad, err := adaptsearch.New(slice)
		if err != nil {
			return nil, err
		}
		o.shards = append(o.shards, shardStack{
			hybrid: sub.(*topk.HybridIndex), store: store, kern: kernel.New(),
			inv: invindex.NewSearcher(inv), adapt: adaptsearch.NewSearcher(ad),
		})
	}
	if w.durable {
		if o.log, err = wal.Open(filepath.Join(e.work, "wal-onion-"+w.name), wal.WithSyncEvery(1)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *onion) close() {
	if o.log != nil {
		o.log.Close()
		os.RemoveAll(o.log.Dir())
	}
}

// backend runs one range query on the named backend's own searcher; ok is
// false for the backends the planner never routes to at the seed commit.
func (s *shardStack) backend(name string, q ranking.Ranking, raw int, ev *metric.Evaluator) (res []ranking.Result, ok bool) {
	switch name {
	case "inverted":
		res, _ = s.inv.FilterValidateDrop(q, raw, ev, invindex.DropSafe)
	case "adaptsearch":
		res, _ = s.adapt.Query(q, raw, ev)
	default:
		return nil, false
	}
	return res, true
}

// rangeOver adapts a shard's standalone backend to the KNN reduction.
type rangeOver struct {
	s    *shardStack
	name string
	ev   *metric.Evaluator
}

func (r rangeOver) Query(q ranking.Ranking, raw int) ([]ranking.Result, error) {
	res, _ := r.s.backend(r.name, q, raw, r.ev)
	return res, nil
}
func (r rangeOver) Len() int { return r.s.store.Len() }
func (r rangeOver) K() int   { return r.s.store.K() }

// replayed is what depth 2 leaves behind for the deeper depths of a request.
type replayed struct {
	op       int
	req      *request
	parent   int      // span of the shard call; -1 when the request never reached the router
	hybrid   []int    // per shard: span of the hybrid call
	backends []string // per shard (per member and shard for a batch): the backend the hybrid call named
	back     []int    // per shard: span of the backend call
	calls    []uint64 // per shard: distance calls the backend made
}

// timed runs f and records a span around it.
func (o *onion) timed(op, parent int, layer, name string, f func()) int {
	start := time.Now()
	f()
	return o.e.spans.add(o.w.name, op, parent, layer, name, start, time.Now())
}

// depth2 is the handler's own sequence of calls for one request.
func (o *onion) depth2(ctx context.Context, op, parent int, r *request, record bool) (rp replayed, err error) {
	rp = replayed{op: op, req: r, parent: -1}
	span := func(layer, name string, f func()) int {
		if !record {
			f()
			return -1
		}
		return o.timed(op, parent, layer, name, f)
	}
	if !r.kind.read() {
		rec := wal.Record{ID: r.id, Ranking: r.rk}
		span("shard", "shard.mutate", func() {
			switch r.kind {
			case opInsert:
				rec.Op = wal.OpInsert
				rec.ID, err = o.sh.Insert(r.rk)
			case opUpdate:
				rec.Op = wal.OpUpdate
				err = o.sh.Update(r.id, r.rk)
			default:
				rec.Op = wal.OpDelete
				err = o.sh.Delete(r.id)
			}
		})
		if err == nil {
			span("wal", "wal.append", func() { err = o.log.Append(rec) })
		}
		o.gen++
		return rp, err
	}
	var (
		key     qcache.Key
		res     []ranking.Result
		hit     bool
		weight  = int64(len(r.queries))
		release func()
	)
	gen := o.gen + o.sh.Rebuilds()
	if r.kind != opBatch { // batches bypass the cache
		key = qcache.Key{Collection: "default#1", Kind: "search", Query: r.queries[0].String(), Theta: r.theta}
		if r.kind == opKNN {
			key.Kind, key.Theta, key.N = "knn", 0, r.nn
		}
		span("qcache", "qcache.get", func() { res, hit = o.cache.Get(key, gen) })
		if hit {
			return rp, nil
		}
	}
	span("admit", "admit.acquire", func() {
		var relTenant, relGlobal func()
		if relTenant, err = o.tenant.Acquire(ctx, weight); err != nil {
			return
		}
		if relGlobal, err = o.global.Acquire(ctx, weight); err != nil {
			relTenant()
			return
		}
		release = func() { relGlobal(); relTenant() }
	})
	if err != nil {
		return rp, err
	}
	defer release()
	rp.parent = span("shard", "shard.call", func() {
		switch r.kind {
		case opSearch:
			res, _, err = o.sh.SearchTracedContext(ctx, r.queries[0], r.theta)
		case opKNN:
			res, err = o.sh.NearestNeighborsContext(ctx, r.queries[0], r.nn)
		default:
			var shared bool
			if _, shared, err = o.sh.SearchBatchSharedContext(ctx, r.queries, r.theta); !shared {
				_, err = o.sh.SearchBatchContext(ctx, r.queries, r.theta)
			}
		}
	})
	if err == nil && r.kind != opBatch {
		span("qcache", "qcache.put", func() { o.cache.Put(key, gen, res) })
	}
	return rp, err
}

// routed reports which backend the planner sent the calls made by f to, by
// the plan counters f moved.
func routed(h *topk.HybridIndex, f func()) string {
	before := h.PlanStats()
	f()
	name, most := "", uint64(0)
	for i, st := range h.PlanStats() {
		if d := st.Plans - before[i].Plans; d > most {
			name, most = st.Backend, d
		}
	}
	return name
}

// depth3 calls each shard's hybrid index directly.
func (o *onion) depth3(rp *replayed) error {
	r := rp.req
	rp.hybrid = make([]int, len(o.shards))
	for si := range o.shards {
		h := o.shards[si].hybrid
		var err error
		rp.hybrid[si] = o.timed(rp.op, rp.parent, "hybrid", "hybrid.call", func() {
			if r.kind == opKNN {
				rp.backends = append(rp.backends, routed(h, func() { _, err = h.NearestNeighbors(r.queries[0], r.nn) }))
				return
			}
			for _, q := range r.queries {
				_, name, _, e := h.SearchTraced(q, r.theta)
				rp.backends = append(rp.backends, name)
				if e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// depth4 runs the backend each hybrid call named through its own package's
// searcher over the same shard slice, and counts its distance calls.
func (o *onion) depth4(rp *replayed) {
	r := rp.req
	rp.back = make([]int, len(o.shards))
	rp.calls = make([]uint64, len(o.shards))
	raw := ranking.RawThreshold(r.theta, o.e.sc.k)
	if dmax := ranking.MaxDistance(o.e.sc.k); raw >= dmax {
		raw = dmax - 1
	}
	per := len(r.queries)
	for si := range o.shards {
		s := &o.shards[si]
		ev := metric.New(nil)
		var found, known int
		rp.back[si] = o.timed(rp.op, rp.hybrid[si], "backend", "backend.search", func() {
			if r.kind == opKNN {
				res, _ := knn.Expanding(rangeOver{s, rp.backends[si], ev}, r.queries[0], r.nn)
				found, known = len(res), 1
				return
			}
			for qi, q := range r.queries {
				if res, ok := s.backend(rp.backends[si*per+qi], q, raw, ev); ok {
					found += len(res)
					known++
				}
			}
		})
		if known > 0 {
			rp.calls[si] = ev.Calls()
			o.dfc += ev.Calls()
			o.results += uint64(found)
		}
	}
}

// depth5 is the kernel alone: compile the query, then validate as many
// stored rankings as the backend made distance calls, spread evenly over the
// shard so the memory access pattern is a candidate list's, not a scan's.
func (o *onion) depth5(rp *replayed) {
	var ids []ranking.ID
	var out []int
	for si := range o.shards {
		st, kn, calls := o.shards[si].store, o.shards[si].kern, int(rp.calls[si])
		if calls == 0 {
			continue
		}
		perQuery := max(calls/len(rp.req.queries), 1)
		ids = ids[:0]
		for j := 0; j < perQuery; j++ {
			ids = append(ids, ranking.ID((j*st.Len()/perQuery+rp.op*31)%st.Len()))
		}
		o.timed(rp.op, rp.back[si], "kernel", "kernel.validate", func() {
			for _, q := range rp.req.queries {
				c0 := time.Now()
				kn.Compile(q)
				c1 := time.Now()
				out = kn.FootruleMany(st, ids, out[:0])
				o.compileNs = append(o.compileNs, float64(c1.Sub(c0).Nanoseconds()))
				o.validateNs = append(o.validateNs, float64(time.Since(c1).Nanoseconds())/float64(len(ids)))
			}
		})
	}
}

// replay warms the in-process cache exactly as the live server's was warmed,
// then pushes list through the depths chunk by chunk. handlerSpan maps a
// request to the span that caused its depth-2 calls.
func (o *onion) replay(ctx context.Context, list []int32, handlerSpan func(op int) int) error {
	for i, ri := range o.w.warm {
		if _, err := o.depth2(ctx, -1, -1, &o.w.reqs[ri], false); err != nil {
			return fmt.Errorf("onion warm-up %d: %w", i, err)
		}
	}
	for lo := 0; lo < len(list) && ctx.Err() == nil; lo += replayChunk {
		hi := min(lo+replayChunk, len(list))
		var deep []replayed
		for op := lo; op < hi; op++ {
			rp, err := o.depth2(ctx, op, handlerSpan(op), &o.w.reqs[list[op]], true)
			if err != nil {
				return fmt.Errorf("onion depth 2, op %d: %w", op, err)
			}
			if rp.parent >= 0 {
				deep = append(deep, rp)
			}
		}
		for i := range deep {
			if err := o.depth3(&deep[i]); err != nil {
				return fmt.Errorf("onion depth 3, op %d: %w", deep[i].op, err)
			}
		}
		for i := range deep {
			o.depth4(&deep[i])
		}
		for i := range deep {
			o.depth5(&deep[i])
		}
	}
	return ctx.Err()
}

// regret replays the sample's reads with the planner routing and then pinned
// to each of the two backends it routes to, all in the same final state, and
// returns routed time ÷ the better pinned time. Above 1 the planner lost
// time over the best single choice; below 1 per-query routing won some.
func (o *onion) regret(list []int32) (float64, error) {
	pass := func(force string) (time.Duration, error) {
		var total time.Duration
		for si := range o.shards {
			h := o.shards[si].hybrid
			if err := h.Force(force); err != nil {
				return 0, err
			}
			start := time.Now()
			for n, ri := range list {
				r := &o.w.reqs[ri]
				if !r.kind.read() || n >= 500 {
					continue
				}
				if r.kind == opKNN {
					h.NearestNeighbors(r.queries[0], r.nn)
					continue
				}
				for _, q := range r.queries {
					h.SearchTraced(q, r.theta)
				}
			}
			total += time.Since(start)
		}
		return total, nil
	}
	routedT, err := pass("")
	if err != nil {
		return 0, err
	}
	best := time.Duration(0)
	for _, name := range []string{"inverted", "adaptsearch"} {
		t, err := pass(name)
		if err != nil {
			return 0, err
		}
		if best == 0 || t < best {
			best = t
		}
	}
	for si := range o.shards {
		o.shards[si].hybrid.Force("") // hand the planner back
	}
	return ratio(float64(routedT), float64(best)), nil
}
