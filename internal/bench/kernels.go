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
// a shared host drifts by more than any threshold worth gating on. The runs
// are interleaved (see kernelRows.run), so drift spreads over every row
// alike.
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

// kernelRows holds the experiment's rows, registered before any runs: each
// row's record, still without measurements, and its function.
type kernelRows struct {
	recs []KernelRecord
	fs   []func(b *testing.B)
	// oneAlloc lists the rows that must allocate nothing but the result
	// slice they return; err is the first error a row's function met.
	oneAlloc []int
	err      error
}

func (r *kernelRows) add(name string, k, n int, f func(b *testing.B)) {
	r.recs = append(r.recs, KernelRecord{Name: name, K: k, N: n})
	r.fs = append(r.fs, f)
}

// run measures every row in kernelRuns rounds, each round one run of every
// row in row order: a host slowdown lasting a few seconds then costs every
// row a little instead of all five runs of the rows that happen to run
// during it. Each record is the row's median run, with the fastest and
// slowest beside it.
func (r *kernelRows) run() ([]KernelRecord, error) {
	runs := make([][]testing.BenchmarkResult, len(r.fs))
	for range kernelRuns {
		for i, f := range r.fs {
			runs[i] = append(runs[i], testing.Benchmark(f))
		}
	}
	for i, rs := range runs {
		sort.Slice(rs, func(a, b int) bool { return rs[a].NsPerOp() < rs[b].NsPerOp() })
		rec, med := &r.recs[i], rs[kernelRuns/2]
		rec.NsPerOp, rec.AllocsPerOp = med.NsPerOp(), med.AllocsPerOp()
		rec.MinNsPerOp, rec.MaxNsPerOp = rs[0].NsPerOp(), rs[kernelRuns-1].NsPerOp()
	}
	for _, i := range r.oneAlloc {
		if rec := r.recs[i]; rec.AllocsPerOp > 1 {
			return nil, fmt.Errorf("%s: %d allocs/op, want only the returned slice", rec.Name, rec.AllocsPerOp)
		}
	}
	return r.recs, r.err
}

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
// followed by the whole-query rows of addSearchers (knn-native,
// knn-expanding, fv-drop) and the index build they run on (build). Every row
// is registered first and then measured in interleaved rounds (see run).
func Kernels(ks, ns []int) ([]KernelRecord, Table, error) {
	var rows kernelRows
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

		rows.add(fmt.Sprintf("footrule-scalar/k=%d", k), k, maxN, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				kernelSink += ranking.Footrule(q, st.Slot(ranking.ID(i%maxN)))
			}
		})

		kern := kernel.New()
		rows.add(fmt.Sprintf("footrule-kernel/k=%d", k), k, maxN, func(b *testing.B) {
			b.ReportAllocs()
			kern.Compile(queries[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					kern.Compile(queries[(i/1024)%len(queries)])
				}
				kernelSink += kern.Distance(st.Slot(ranking.ID(i % maxN)))
			}
		})

		rows.add(fmt.Sprintf("compile/k=%d", k), k, maxN, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kern.Compile(queries[i%len(queries)])
			}
		})

		for _, n := range ns {
			ids := make([]ranking.ID, n)
			for i := range ids {
				ids[i] = ranking.ID(i)
			}
			rawTheta := ranking.MaxDistance(k) / 4

			rows.add(fmt.Sprintf("validate-scalar/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
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
			})

			dists := make([]int, 0, n)
			rows.add(fmt.Sprintf("validate-batched/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
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
			})

			idx, err := invindex.New(rs[:n])
			if err != nil {
				return nil, Table{}, err
			}
			stamp := make([]uint32, n)
			gen := uint32(0)
			cands := make([]ranking.ID, 0, n)
			rows.add(fmt.Sprintf("collect/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
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
			})
		}
	}

	if err := rows.addSearchers([]int{10, 25}, []int{4000, 20000}); err != nil {
		return nil, Table{}, err
	}
	if err := rows.addSearchers([]int{10}, []int{100000}); err != nil { // the end-to-end benchmark's collection
		return nil, Table{}, err
	}
	recs, err := rows.run()
	if err != nil {
		return nil, Table{}, err
	}

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

// addSearchers adds the rows that measure whole queries over an n-ranking
// NYT-like inverted index, by k and n, on one reused searcher cycling 256
// queries (what a KNN query costs depends on whether its accumulate closes
// admission, so a handful of queries would measure their mix, not the
// workload's):
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
func (r *kernelRows) addSearchers(ks, ns []int) error {
	for _, k := range ks {
		for _, n := range ns {
			cfg := dataset.NYTLike(n, k)
			rs, err := dataset.Generate(cfg)
			if err != nil {
				return err
			}
			queries, err := dataset.Workload(rs, cfg, 256, 0.8, cfg.Seed+500)
			if err != nil {
				return err
			}
			idx, err := invindex.New(rs)
			if err != nil {
				return err
			}
			s := invindex.NewSearcher(idx)
			r.add(fmt.Sprintf("knn-native/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.NearestNeighbors(queries[i%len(queries)], knnNeighbors, nil)
					if err != nil {
						r.err = err
					}
					kernelSink += len(res)
				}
			})
			r.oneAlloc = append(r.oneAlloc, len(r.recs)-1)
			r.add(fmt.Sprintf("knn-expanding/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := knn.Expanding(rangeOverInverted{s}, queries[i%len(queries)], knnNeighbors)
					if err != nil {
						r.err = err
					}
					kernelSink += len(res)
				}
			})
			ev := metric.New(nil)
			r.add(fmt.Sprintf("fv-drop/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.FilterValidateDrop(queries[i%len(queries)], ranking.MaxDistance(k)/5, ev, invindex.DropSafe)
					if err != nil {
						r.err = err
					}
					kernelSink += len(res)
				}
			})
			r.oneAlloc = append(r.oneAlloc, len(r.recs)-1)
			r.add(fmt.Sprintf("build/k=%d/n=%d", k, n), k, n, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := invindex.New(rs); err != nil {
						r.err = err
					}
				}
			})
		}
	}
	return nil
}
