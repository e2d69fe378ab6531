package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"topk/internal/dataset"
	"topk/internal/ranking"
)

// Workload names are part of BENCHMARK.json and must not change.
const (
	wlPointZipf    = "point_zipf"
	wlBatchUniform = "batch_uniform"
	wlKNNUniform   = "knn_uniform"
	wlMixedRW      = "mixed_rw"
)

var workloadNames = []string{wlPointZipf, wlBatchUniform, wlKNNUniform, wlMixedRW}

// gatedWorkloads are the ones BENCHMARK.json lists. mixed_rw is run by the
// human command only: its throughput depends on how far a run gets into a
// sequence of fsyncs, epoch rebuilds and planner re-seeding, and ten runs of
// one binary spread wider than any bound the contract allows (README.md).
var gatedWorkloads = workloadNames[:3]

// why holds the one-sentence reason each workload exists; BENCHMARK.json and
// the README repeat it.
var why = map[string]string{
	wlPointZipf:    "Zipf-skewed single queries whose hot set fits the result cache: transport, server codec and qcache do the work, backends almost none",
	wlBatchUniform: "64-query batches drawn uniformly: the cache is bypassed, so backend filter+validate, planner routing and JSON encoding of large responses dominate",
	wlKNNUniform:   "unique exact-KNN queries: tens of thousands of kernel validations per query, isolates internal/kernel and the KNN reduction",
	wlMixedRW:      "90% Zipf searches + 10% durable mutations, one checkpoint, kill -9 and recovery: cache invalidation, delta overlay, fsync, epoch rebuilds",
}

type opKind uint8

const (
	opSearch opKind = iota
	opBatch
	opKNN
	opInsert
	opUpdate
	opDelete
)

func (k opKind) read() bool { return k <= opKNN }

func (k opKind) path() string {
	switch k {
	case opSearch, opBatch:
		return "/search"
	case opKNN:
		return "/knn"
	case opInsert:
		return "/insert"
	case opUpdate:
		return "/update"
	default:
		return "/delete"
	}
}

// request is one distinct pre-marshalled HTTP request together with the
// inputs the verifier needs to recompute its answer.
type request struct {
	kind    opKind
	body    []byte
	queries []ranking.Ranking // 1 for search/knn, batchSize for batch
	theta   float64
	nn      int             // knn only
	id      ranking.ID      // update/delete only
	rk      ranking.Ranking // insert/update only
}

// members is the number of operations a successful request counts as: a
// batch member counts as one operation.
func (r *request) members() int {
	if r.kind == opBatch {
		return len(r.queries)
	}
	return 1
}

// workload is a generated operation list. order and warm index into reqs;
// the measured phase walks order from the front until the clock (or, in a
// traced run, the fixed count) stops it.
type workload struct {
	name string
	// clients is the number of closed-loop callers of the measured phase,
	// each on its own keep-alive connection, chosen so that no more is
	// runnable at once than the two cores of the sandbox the bounds were
	// taken on: a single search is one goroutine in the server, so two
	// clients; a batch or a KNN query fans out over both shards, so one.
	clients int
	// durable turns the WAL on with synchronous commit: one checkpoint
	// half-way, kill -9 and recovery after the run.
	durable bool
	// deltaRatio, when not 0, is the server's -delta-ratio.
	deltaRatio float64
	reqs       []request
	order      []int32
	warm       []int32
	// traceOps is the fixed op count of a traced run's counted phase and
	// replayOps the prefix of it pushed through the in-process depths.
	traceOps, replayOps int
	// sampleEvery spaces the replies kept for the oracle: each check is a
	// linear scan of the collection (≈ 25 ms at n = 200 000), so the sample
	// is sized to about a hundred scans at the rate the seed commit serves
	// the workload in the contract's 25 s.
	sampleEvery int
}

// sampled is the keep rule of the measured phases: the first firstKept
// operations and every sampleEvery-th after.
func (w *workload) sampled(op int) bool { return op < firstKept || op%w.sampleEvery == 0 }

const firstKept = 40

// scale fixes every count of a run. The recorded size is fullScale; smoke is
// the same code at 1/50 of the op counts for iteration.
type scale struct {
	n, k       int
	pointPairs int
	pointOps   int
	pointWarm  int
	batchPool  int
	batchSize  int
	batches    int
	batchWarm  int
	knnOps     int
	knnWarm    int
	mixedOps   int
	mixedWarm  int

	tracePoint, traceBatch, traceKNN, traceMixed     int
	replayPoint, replayBatch, replayKNN, replayMixed int
}

// fullScale sizes the lists. A list of reads starts over when a measured
// phase outruns it, so each only has to be longer than the 4096-entry result
// cache (a repeat must still be a miss) and long enough to sample the pools;
// the mixed list cannot repeat and is several times what the seed commit
// serves in 20 s.
var fullScale = scale{
	n: 200000, k: 10,
	pointPairs: 20000, pointOps: 600000, pointWarm: 10000,
	batchPool: 100000, batchSize: 64, batches: 12000, batchWarm: 200,
	knnOps: 12000, knnWarm: 100,
	mixedOps: 120000, mixedWarm: 1000,
	tracePoint: 20000, traceBatch: 600, traceKNN: 300, traceMixed: 32000,
	replayPoint: 2000, replayBatch: 200, replayKNN: 100, replayMixed: 2000,
}

func smokeScale() scale {
	s := fullScale
	s.n = 5000
	for _, p := range []*int{
		&s.pointPairs, &s.pointOps, &s.pointWarm, &s.batchPool, &s.batches, &s.batchWarm,
		&s.knnOps, &s.knnWarm, &s.mixedOps, &s.mixedWarm,
		&s.tracePoint, &s.traceBatch, &s.traceKNN, &s.traceMixed,
		&s.replayPoint, &s.replayBatch, &s.replayKNN, &s.replayMixed,
	} {
		*p = max(*p/50, 4)
	}
	return s
}

// searchThetas are the fixed per-pair thresholds of the point workloads;
// batchThetas cycle per batch.
var (
	searchThetas = []float64{0, 0.1, 0.2, 0.3}
	batchThetas  = []float64{0.1, 0.2, 0.3}
)

// rngFor derives an independent stream from the run seed: the measured list,
// the warm-up and each pool draw from different streams.
func rngFor(seed, stream int64) *rand.Rand { return rand.New(rand.NewSource(streamSeed(seed, stream))) }

func streamSeed(seed, stream int64) int64 { return seed*1000003 + stream }

func appendRanking(dst []byte, r ranking.Ranking) []byte {
	dst = append(dst, '[')
	for i, it := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(it), 10)
	}
	return append(dst, ']')
}

func searchBody(q ranking.Ranking, theta float64) []byte {
	b := appendRanking([]byte(`{"query":`), q)
	b = append(b, `,"theta":`...)
	b = strconv.AppendFloat(b, theta, 'g', -1, 64)
	return append(b, '}')
}

func batchBody(qs []ranking.Ranking, theta float64) []byte {
	b := []byte(`{"queries":[`)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRanking(b, q)
	}
	b = append(b, `],"theta":`...)
	b = strconv.AppendFloat(b, theta, 'g', -1, 64)
	return append(b, '}')
}

func knnBody(q ranking.Ranking, n int) []byte {
	b := appendRanking([]byte(`{"query":`), q)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '}')
}

func mutationBody(kind opKind, id ranking.ID, rk ranking.Ranking) []byte {
	b := []byte{'{'}
	if kind != opInsert {
		b = append(b, `"id":`...)
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	if kind != opDelete {
		if kind == opUpdate {
			b = append(b, ',')
		}
		b = appendRanking(append(b, `"ranking":`...), rk)
	}
	return append(b, '}')
}

// zipfPairs builds the (query, θ) pair table of the point workloads and
// returns a sampler over it: pair i is requested with weight 1/(i+1)^1.1.
func zipfPairs(rs []ranking.Ranking, cfg dataset.Config, pairs int, seed int64) ([]request, error) {
	qs, err := dataset.Workload(rs, cfg, pairs, 0.8, streamSeed(seed, 1))
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, 2)
	reqs := make([]request, len(qs))
	for i, q := range qs {
		theta := searchThetas[rng.Intn(len(searchThetas))]
		reqs[i] = request{kind: opSearch, body: searchBody(q, theta), queries: qs[i : i+1], theta: theta}
	}
	return reqs, nil
}

func zipfOrder(pairs, count int, rng *rand.Rand) []int32 {
	z := dataset.NewZipfSampler(pairs, 1.1, rng)
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(z.Next())
	}
	return out
}

// generate builds the named workload's operation list from the seed. The
// collection is the same for every seed; only the queries and operations
// vary, and the server sees nothing but the generated requests.
func generate(name string, rs []ranking.Ranking, cfg dataset.Config, sc scale, seed int64) (*workload, error) {
	switch name {
	case wlPointZipf:
		reqs, err := zipfPairs(rs, cfg, sc.pointPairs, seed)
		if err != nil {
			return nil, err
		}
		return &workload{
			name: name, clients: 2, reqs: reqs,
			order:    zipfOrder(len(reqs), sc.pointOps, rngFor(seed, 3)),
			warm:     zipfOrder(len(reqs), sc.pointWarm, rngFor(seed, 4)),
			traceOps: sc.tracePoint, replayOps: sc.replayPoint, sampleEvery: 5000,
		}, nil

	case wlBatchUniform:
		pool, err := dataset.Workload(rs, cfg, sc.batchPool, 0.8, streamSeed(seed, 1))
		if err != nil {
			return nil, err
		}
		total := sc.batches + sc.batchWarm
		rng := rngFor(seed, 3)
		w := &workload{name: name, clients: 1, reqs: make([]request, total), traceOps: sc.traceBatch, replayOps: sc.replayBatch, sampleEvery: 400}
		for i := range w.reqs {
			if i == sc.batches {
				rng = rngFor(seed, 4) // the warm-up draws from its own stream
			}
			qs := make([]ranking.Ranking, sc.batchSize)
			for j := range qs {
				qs[j] = pool[rng.Intn(len(pool))]
			}
			theta := batchThetas[i%len(batchThetas)]
			w.reqs[i] = request{kind: opBatch, body: batchBody(qs, theta), queries: qs, theta: theta}
		}
		w.order, w.warm = iota32(0, sc.batches), iota32(sc.batches, total)
		return w, nil

	case wlKNNUniform:
		// Every query is unique — a repeat would be a cache hit — so the pool
		// is deduplicated and the warm-up takes a disjoint tail of it.
		total := sc.knnOps + sc.knnWarm
		pool, err := dataset.Workload(rs, cfg, total+total/4+16, 0.8, streamSeed(seed, 1))
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, total)
		w := &workload{name: name, clients: 1, traceOps: sc.traceKNN, replayOps: sc.replayKNN, sampleEvery: 80}
		for i, q := range pool {
			if key := q.String(); !seen[key] && len(w.reqs) < total {
				seen[key] = true
				w.reqs = append(w.reqs, request{kind: opKNN, body: knnBody(q, 10), queries: pool[i : i+1], nn: 10})
			}
		}
		if len(w.reqs) < total {
			return nil, fmt.Errorf("knn pool: only %d unique queries of %d", len(w.reqs), total)
		}
		w.order, w.warm = iota32(0, sc.knnOps), iota32(sc.knnOps, total)
		return w, nil

	case wlMixedRW:
		return generateMixed(rs, cfg, sc, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// generateMixed interleaves Zipf point searches (90%) with mutations (10%:
// insert 60 / update 30 / delete 10). Every update and delete names an id no
// other operation of the list touches — updates from the lower half of the
// initial id range, deletes from the upper half — so two clients never race
// on one id and the final state does not depend on their interleaving.
func generateMixed(rs []ranking.Ranking, cfg dataset.Config, sc scale, seed int64) (*workload, error) {
	reqs, err := zipfPairs(rs, cfg, sc.pointPairs, seed)
	if err != nil {
		return nil, err
	}
	pairs := len(reqs)
	rng := rngFor(seed, 3)
	z := dataset.NewZipfSampler(pairs, 1.1, rng)
	n := len(rs)
	updIDs, delIDs := rng.Perm(n/2), rng.Perm(n-n/2)
	fresh, err := dataset.Workload(rs, cfg, sc.mixedOps/10+sc.mixedOps/50+16, 0.8, streamSeed(seed, 5))
	if err != nil {
		return nil, err
	}
	w := &workload{
		name: wlMixedRW, clients: 2, durable: true, deltaRatio: 0.02,
		order:    make([]int32, 0, sc.mixedOps),
		warm:     zipfOrder(pairs, sc.mixedWarm, rngFor(seed, 4)), // read-only: the oracle starts from the snapshot
		traceOps: sc.traceMixed, replayOps: sc.replayMixed, sampleEvery: 500,
	}
	for len(w.order) < sc.mixedOps {
		if rng.Intn(10) > 0 {
			w.order = append(w.order, int32(z.Next()))
			continue
		}
		var r request
		switch p := rng.Intn(10); {
		case p < 6 && len(fresh) > 0:
			r = request{kind: opInsert, rk: fresh[0]}
			fresh = fresh[1:]
		case p < 9 && len(updIDs) > 0 && len(fresh) > 0:
			r = request{kind: opUpdate, id: ranking.ID(updIDs[0]), rk: fresh[0]}
			updIDs, fresh = updIDs[1:], fresh[1:]
		case len(delIDs) > 0:
			r = request{kind: opDelete, id: ranking.ID(n/2 + delIDs[0])}
			delIDs = delIDs[1:]
		default:
			continue
		}
		r.body = mutationBody(r.kind, r.id, r.rk)
		w.order = append(w.order, int32(len(reqs)))
		reqs = append(reqs, r)
	}
	w.reqs = reqs
	return w, nil
}

func iota32(from, to int) []int32 {
	out := make([]int32, to-from)
	for i := range out {
		out[i] = int32(from + i)
	}
	return out
}

// hash fingerprints the operation list — order, warm-up and every body — so
// tests can pin "same seed, same inputs".
func (w *workload) hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, list := range [][]int32{w.order, w.warm} {
		for _, i := range list {
			b[0], b[1], b[2], b[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			h.Write(b[:])
		}
	}
	for i := range w.reqs {
		h.Write([]byte(w.reqs[i].kind.path()))
		h.Write(w.reqs[i].body)
	}
	return h.Sum64()
}
