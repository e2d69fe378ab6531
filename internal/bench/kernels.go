package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"testing"

	"topk/internal/dataset"
	"topk/internal/invindex"
	"topk/internal/kernel"
	"topk/internal/knn"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// KernelRecord is one machine-readable microbenchmark measurement of the
// distance-kernel layer (BENCH_kernels.json): the per-PR perf trajectory the
// CI regression gate (cmd/benchgate) diffs against the committed baseline.
// NsPerOp is the median of kernelRuns runs and [MinNsPerOp, MaxNsPerOp] their
// spread — the row's own noise floor, which the gate needs because one run on
// a shared host drifts by more than any threshold worth gating on.
type KernelRecord struct {
	Name        string `json:"name"`
	K           int    `json:"k"`
	N           int    `json:"n"`
	NsPerOp     int64  `json:"nsPerOp"`
	MinNsPerOp  int64  `json:"minNsPerOp"`
	MaxNsPerOp  int64  `json:"maxNsPerOp"`
	AllocsPerOp int64  `json:"allocsPerOp"`
}

// kernelRuns is how many times each row is measured.
const kernelRuns = 5

// WriteKernelJSON writes records as indented JSON (the committed-baseline
// format).
func WriteKernelJSON(w io.Writer, recs []KernelRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// kernelSink defeats dead-code elimination of the measured distance loops.
var kernelSink int

// Kernels measures the hot paths of the distance layer on an NYT-like
// collection, by k and candidate-buffer size n:
//
//	footrule-scalar   one ranking.Footrule call (the pre-kernel path)
//	footrule-kernel   one compiled-kernel Distance call (compile amortized)
//	compile           one query compilation (dense rank table build)
//	validate-scalar   full n-candidate validation via per-candidate Footrule
//	validate-batched  the same buffer via Compile + FootruleMany on the flat
//	                  store — the acceptance-criteria comparison pair
//	collect           merging the query's k posting lists into a stamped
//	                  candidate buffer (the CSR-backed filter phase)
//
// followed by the whole-query rows of searcherRecords (knn-native,
// knn-expanding, fv-drop) and the index build they run on (build).
func Kernels(ks, ns []int) ([]KernelRecord, Table, error) {
	var recs []KernelRecord
	maxN := slices.Max(ns)
	for _, k := range ks {
		cfg := dataset.NYTLike(maxN, k)
		rs, err := dataset.Generate(cfg)
		if err != nil {
			return nil, Table{}, err
		}
		queries, err := dataset.Workload(rs, cfg, 16, 0.8, cfg.Seed+500)
		if err != nil {
			return nil, Table{}, err
		}
		st := kernel.NewStore(rs)

		recs = append(recs, measure(fmt.Sprintf("footrule-scalar/k=%d", k), k, maxN, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				kernelSink += ranking.Footrule(q, st.Slot(ranking.ID(i%maxN)))
			}
		}))

		kern := kernel.New()
		recs = append(recs, measure(fmt.Sprintf("footrule-kernel/k=%d", k), k, maxN, func(b *testing.B) {
			b.ReportAllocs()
			kern.Compile(queries[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					kern.Compile(queries[(i/1024)%len(queries)])
				}
				kernelSink += kern.Distance(st.Slot(ranking.ID(i % maxN)))
			}
		}))

		recs = append(recs, measure(fmt.Sprintf("compile/k=%d", k), k, maxN, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kern.Compile(queries[i%len(queries)])
			}
		}))

		for _, n := range ns {
			ids := make([]ranking.ID, n)
			for i := range ids {
				ids[i] = ranking.ID(i)
			}
			rawTheta := ranking.MaxDistance(k) / 4

			recs = append(recs, measure(fmt.Sprintf("validate-scalar/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					hits := 0
					for _, id := range ids {
						if ranking.Footrule(q, st.Slot(id)) <= rawTheta {
							hits++
						}
					}
					kernelSink += hits
				}
			}))

			dists := make([]int, 0, n)
			recs = append(recs, measure(fmt.Sprintf("validate-batched/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					kern.Compile(q)
					dists = kern.FootruleMany(st, ids, dists[:0])
					hits := 0
					for _, d := range dists {
						if d <= rawTheta {
							hits++
						}
					}
					kernelSink += hits
				}
			}))

			idx, err := invindex.New(rs[:n])
			if err != nil {
				return nil, Table{}, err
			}
			stamp := make([]uint32, n)
			gen := uint32(0)
			cands := make([]ranking.ID, 0, n)
			recs = append(recs, measure(fmt.Sprintf("collect/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					gen++
					cands = cands[:0]
					for _, item := range q {
						ids, _ := idx.Postings(item)
						for _, id := range ids {
							if stamp[id] != gen {
								stamp[id] = gen
								cands = append(cands, id)
							}
						}
					}
					kernelSink += len(cands)
				}
			}))
		}
	}

	searcherRecs, err := searcherRecords([]int{10, 25}, []int{4000, 20000})
	if err != nil {
		return nil, Table{}, err
	}
	shardRecs, err := searcherRecords([]int{10}, []int{100000}) // the end-to-end benchmark's shard
	if err != nil {
		return nil, Table{}, err
	}
	recs = append(append(recs, searcherRecs...), shardRecs...)

	t := Table{
		Title:   "Distance-kernel microbenchmarks (NYT-like)",
		Columns: []string{"benchmark", "k", "n", "ns/op", "min", "max", "allocs/op"},
		Notes: []string{
			fmt.Sprintf("ns/op is the median of %d runs, min and max their spread", kernelRuns),
			"validate-* rows measure one full n-candidate validation pass per op",
			"knn-* rows measure one exact 10-nearest-neighbor query over an n-ranking inverted index per op",
			"fv-drop rows measure one F&V+Drop range query at θ = 0.2 over the same index per op",
			"build rows measure one inverted-index build over the n rankings per op",
			"the CI gate compares ns/op and the spreads against the committed BENCH_kernels.json",
		},
	}
	for _, r := range recs {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.K),
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.NsPerOp),
			fmt.Sprintf("%d", r.MinNsPerOp),
			fmt.Sprintf("%d", r.MaxNsPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp),
		})
	}
	return recs, t, nil
}

// knnNeighbors is the n of the measured KNN queries (the end-to-end
// benchmark's knn_uniform asks for 10 as well).
const knnNeighbors = 10

// rangeOverInverted adapts an inverted-index searcher's F&V+Drop range
// search to the KNN reduction, the way the hybrid's inverted backend ran
// KNN before it had a native algorithm.
type rangeOverInverted struct{ s *invindex.Searcher }

func (r rangeOverInverted) Query(q ranking.Ranking, raw int) ([]ranking.Result, error) {
	return r.s.FilterValidateDrop(q, raw, nil, invindex.DropSafe)
}
func (r rangeOverInverted) Len() int { return r.s.Index().Len() }
func (r rangeOverInverted) K() int   { return r.s.Index().K() }

// searcherRecords measures whole queries over an n-ranking NYT-like inverted
// index, by k and n, on one reused searcher cycling 256 queries (what a KNN
// query costs depends on whether its accumulate closes admission, so a
// handful of queries would measure their mix, not the workload's):
//
//	knn-native     invindex.Searcher.NearestNeighbors — one accumulate-and-
//	               select pass over the query's posting lists, 10 neighbors
//	knn-expanding  knn.Expanding over the same searcher's F&V+Drop range
//	               search — the doubling-radius reduction it replaced
//	fv-drop        FilterValidateDrop at θ = 0.2 — the hybrid's default range
//	               route
//	build          invindex.New over the collection — a served collection's
//	               start-up and every compaction
//
// The knn-native and fv-drop rows must allocate nothing but the result slice
// they return; more than one allocation per op is reported as an error.
func searcherRecords(ks, ns []int) ([]KernelRecord, error) {
	var recs []KernelRecord
	for _, k := range ks {
		for _, n := range ns {
			cfg := dataset.NYTLike(n, k)
			rs, err := dataset.Generate(cfg)
			if err != nil {
				return nil, err
			}
			queries, err := dataset.Workload(rs, cfg, 256, 0.8, cfg.Seed+500)
			if err != nil {
				return nil, err
			}
			var benchErr error
			build := measure(fmt.Sprintf("build/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := invindex.New(rs); err != nil {
						benchErr = err
					}
				}
			})
			idx, err := invindex.New(rs)
			if err != nil {
				return nil, err
			}
			s := invindex.NewSearcher(idx)
			native := measure(fmt.Sprintf("knn-native/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.NearestNeighbors(queries[i%len(queries)], knnNeighbors, nil)
					if err != nil {
						benchErr = err
					}
					kernelSink += len(res)
				}
			})
			expanding := measure(fmt.Sprintf("knn-expanding/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := knn.Expanding(rangeOverInverted{s}, queries[i%len(queries)], knnNeighbors)
					if err != nil {
						benchErr = err
					}
					kernelSink += len(res)
				}
			})
			ev := metric.New(nil)
			drop := measure(fmt.Sprintf("fv-drop/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.FilterValidateDrop(queries[i%len(queries)], ranking.MaxDistance(k)/5, ev, invindex.DropSafe)
					if err != nil {
						benchErr = err
					}
					kernelSink += len(res)
				}
			})
			if benchErr != nil {
				return nil, benchErr
			}
			for _, r := range []KernelRecord{native, drop} {
				if r.AllocsPerOp > 1 {
					return nil, fmt.Errorf("%s: %d allocs/op, want only the returned slice", r.Name, r.AllocsPerOp)
				}
			}
			recs = append(recs, native, expanding, drop, build)
		}
	}
	return recs, nil
}

// measure runs f kernelRuns times and records the median run with the
// fastest and slowest ns/op beside it.
func measure(name string, k, n int, f func(b *testing.B)) KernelRecord {
	runs := make([]testing.BenchmarkResult, kernelRuns)
	for i := range runs {
		runs[i] = testing.Benchmark(f)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp() < runs[j].NsPerOp() })
	med := runs[kernelRuns/2]
	return KernelRecord{
		Name:        name,
		K:           k,
		N:           n,
		NsPerOp:     med.NsPerOp(),
		MinNsPerOp:  runs[0].NsPerOp(),
		MaxNsPerOp:  runs[kernelRuns-1].NsPerOp(),
		AllocsPerOp: med.AllocsPerOp(),
	}
}
