// Package bench is the experiment harness: it rebuilds, for every table and
// figure of the paper's evaluation (Section 7), the workload, the competing
// index structures, and the measurement loop, and renders the same rows and
// series the paper reports. Absolute times differ from the authors' 2015
// Java/Xeon testbed; the reproduced quantities are the orderings, factors
// and crossover points — and the distance-function-call counts, which are
// exactly reproducible.
//
// One experiment is not from the paper: Kernels, the distance-layer
// microbenchmark behind BENCH_kernels.json and the cmd/benchgate CI gate.
// The package measures index structures in-process and knows nothing of the
// serving stack (engine facade, admission, WAL); how that performs
// is the end-to-end benchmark's question, asked over a socket by
// `bash benchmark/run.sh`.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"topk/internal/adaptsearch"
	"topk/internal/bktree"
	"topk/internal/blocked"
	"topk/internal/coarse"
	"topk/internal/dataset"
	"topk/internal/invindex"
	"topk/internal/metric"
	"topk/internal/mtree"
	"topk/internal/ranking"
	"topk/internal/stats"
)

// Algorithm names every query processing method under investigation
// (Section 7, "Algorithms under Investigation").
type Algorithm string

// The algorithm suite of the evaluation.
const (
	AlgFV               Algorithm = "F&V"
	AlgListMerge        Algorithm = "ListMerge"
	AlgFVDrop           Algorithm = "F&V+Drop"
	AlgBlockedPrune     Algorithm = "Blocked+Prune"
	AlgBlockedPruneDrop Algorithm = "Blocked+Prune+Drop"
	AlgCoarse           Algorithm = "Coarse"
	AlgCoarseDrop       Algorithm = "Coarse+Drop"
	AlgAdaptSearch      Algorithm = "AdaptSearch"
	AlgMinimalFV        Algorithm = "Minimal F&V"
	AlgBKTree           Algorithm = "BK-tree"
	AlgMTree            Algorithm = "M-tree"
)

// AllAlgorithms lists the Figure 8/9 competitors in presentation order.
var AllAlgorithms = []Algorithm{
	AlgFV, AlgListMerge, AlgAdaptSearch, AlgMinimalFV,
	AlgCoarse, AlgCoarseDrop,
	AlgBlockedPrune, AlgBlockedPruneDrop, AlgFVDrop,
}

// Env bundles a generated dataset with its workload and statistics.
type Env struct {
	Name     string
	Cfg      dataset.Config
	Rankings []ranking.Ranking
	Queries  []ranking.Ranking
	CDF      *stats.ECDF
	ZipfS    float64
	V        int // observed distinct items
}

// NewEnv generates the collection and workload for a dataset configuration.
func NewEnv(name string, cfg dataset.Config, numQueries int) (*Env, error) {
	rs, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	qs, err := dataset.Workload(rs, cfg, numQueries, 0.8, cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	freqs := stats.ItemFrequencies(rs)
	s, err := stats.FitZipfHead(freqs, 500)
	if err != nil {
		s = cfg.ZipfS
	}
	pairs := 20000
	if pairs > len(rs)*(len(rs)-1)/2 {
		pairs = len(rs) * (len(rs) - 1) / 2
	}
	return &Env{
		Name:     name,
		Cfg:      cfg,
		Rankings: rs,
		Queries:  qs,
		CDF:      stats.SampleDistances(rs, pairs, cfg.Seed+2000),
		ZipfS:    s,
		V:        len(freqs),
	}, nil
}

// Suite holds all index structures built over one Env, ready to answer
// queries with any algorithm.
type Suite struct {
	Env *Env

	inv        *invindex.Index
	invSearch  *invindex.Searcher
	blk        *blocked.Index
	blkSearch  *blocked.Searcher
	coarse     *coarse.Index
	coarseS    *coarse.Searcher
	coarseDrop *coarse.Index
	coarseDS   *coarse.Searcher
	adapt      *adaptsearch.Index
	adaptS     *adaptsearch.Searcher
	minimal    *invindex.Minimal
	// trees holds the BK-tree and the M-tree under their Algorithm, unless
	// SkipTrees.
	trees map[Algorithm]metricTree

	// BuildTimes records construction wall-clock per structure (Table 6).
	BuildTimes map[string]time.Duration
}

// metricTree is what the suite uses of a metric tree: its range walk, which
// reports each hit's distance, and its size for Table 6.
type metricTree interface {
	RangeSearch(q ranking.Ranking, radius int, ev *metric.Evaluator) []ranking.Result
	SizeBytes() int64
}

// SuiteOptions tunes which structures a Suite builds (the metric trees are
// expensive; figures that do not need them can skip them) and the coarse
// index operating points.
type SuiteOptions struct {
	// CoarseThetaC / CoarseDropThetaC are normalized θC values; the paper's
	// comparison figures use 0.5 and 0.06.
	CoarseThetaC     float64
	CoarseDropThetaC float64
	// Thetas are the normalized query thresholds the Minimal F&V oracle
	// materializes.
	Thetas []float64
	// SkipTrees skips BK-tree and M-tree construction.
	SkipTrees bool
	// SkipMinimal skips the oracle (whose brute-force build is O(n·|Q|)).
	SkipMinimal bool
}

// DefaultSuiteOptions mirrors the paper's settings.
func DefaultSuiteOptions() SuiteOptions {
	return SuiteOptions{
		CoarseThetaC:     0.5,
		CoarseDropThetaC: 0.06,
		Thetas:           []float64{0, 0.1, 0.2, 0.3},
	}
}

// BuildSuite constructs every structure over the environment.
func BuildSuite(env *Env, opts SuiteOptions) (*Suite, error) {
	s := &Suite{Env: env, BuildTimes: make(map[string]time.Duration)}
	k := env.Cfg.K

	timeIt := func(name string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("bench: building %s: %w", name, err)
		}
		s.BuildTimes[name] = time.Since(start)
		return nil
	}

	if err := timeIt("Augmented Inverted Index", func() error {
		var err error
		s.inv, err = invindex.New(env.Rankings)
		return err
	}); err != nil {
		return nil, err
	}
	s.invSearch = invindex.NewSearcher(s.inv)

	if err := timeIt("Blocked Inverted Index", func() error {
		var err error
		s.blk, err = blocked.New(env.Rankings)
		return err
	}); err != nil {
		return nil, err
	}
	s.blkSearch = blocked.NewSearcher(s.blk)

	if err := timeIt("Delta Inverted Index", func() error {
		var err error
		s.adapt, err = adaptsearch.New(env.Rankings)
		return err
	}); err != nil {
		return nil, err
	}
	s.adaptS = adaptsearch.NewSearcher(s.adapt)

	if err := timeIt(fmt.Sprintf("Coarse Index (θC=%.2f)", opts.CoarseThetaC), func() error {
		var err error
		s.coarse, err = coarse.New(env.Rankings, ranking.RawThreshold(opts.CoarseThetaC, k), coarse.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	s.coarseS = coarse.NewSearcher(s.coarse)

	if err := timeIt(fmt.Sprintf("Coarse Index (θC=%.2f)", opts.CoarseDropThetaC), func() error {
		var err error
		s.coarseDrop, err = coarse.New(env.Rankings, ranking.RawThreshold(opts.CoarseDropThetaC, k), coarse.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	s.coarseDS = coarse.NewSearcher(s.coarseDrop)

	if !opts.SkipTrees {
		s.trees = make(map[Algorithm]metricTree)
		if err := timeIt(string(AlgBKTree), func() error {
			tr, err := bktree.New(env.Rankings, nil)
			s.trees[AlgBKTree] = tr
			return err
		}); err != nil {
			return nil, err
		}
		if err := timeIt(string(AlgMTree), func() error {
			tr, err := mtree.New(env.Rankings, nil)
			s.trees[AlgMTree] = tr
			return err
		}); err != nil {
			return nil, err
		}
	}

	if !opts.SkipMinimal {
		raw := make([]int, len(opts.Thetas))
		for i, t := range opts.Thetas {
			raw[i] = ranking.RawThreshold(t, k)
		}
		if err := timeIt("Minimal F&V", func() error {
			s.minimal = invindex.BuildMinimal(env.Rankings, env.Queries, raw)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Run answers one query with the named algorithm. ev accumulates the DFC.
func (s *Suite) Run(alg Algorithm, q ranking.Ranking, rawTheta int, ev *metric.Evaluator) ([]ranking.Result, error) {
	switch alg {
	case AlgFV:
		return s.invSearch.FilterValidate(q, rawTheta, ev)
	case AlgFVDrop:
		return s.invSearch.FilterValidateDrop(q, rawTheta, ev, invindex.DropSafe)
	case AlgListMerge:
		return s.invSearch.ListMerge(q, rawTheta, ev)
	case AlgBlockedPrune:
		return s.blkSearch.Query(q, rawTheta, ev, blocked.Prune)
	case AlgBlockedPruneDrop:
		return s.blkSearch.Query(q, rawTheta, ev, blocked.PruneDrop)
	case AlgCoarse:
		return s.coarseS.Query(q, rawTheta, ev, coarse.FV)
	case AlgCoarseDrop:
		return s.coarseDS.Query(q, rawTheta, ev, coarse.FVDrop)
	case AlgAdaptSearch:
		return s.adaptS.Query(q, rawTheta, ev)
	case AlgMinimalFV:
		if s.minimal == nil {
			return nil, fmt.Errorf("bench: Minimal F&V not built")
		}
		res, ok := s.minimal.Query(q, rawTheta, ev)
		if !ok {
			return nil, fmt.Errorf("bench: query not in the materialized workload")
		}
		return res, nil
	case AlgBKTree, AlgMTree:
		tree, ok := s.trees[alg]
		if !ok {
			return nil, fmt.Errorf("bench: %s not built", alg)
		}
		out := tree.RangeSearch(q, rawTheta, ev)
		ranking.SortResults(out)
		return out, nil
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", alg)
	}
}

// Measurement aggregates one workload run: the paper's wall-clock per 1000
// queries and the DFC counts of Figure 10.
type Measurement struct {
	Algorithm Algorithm
	Theta     float64
	Time      time.Duration
	DFC       uint64
	Results   int
}

// TimePer1000Queries normalizes the wall-clock to the paper's reporting
// unit.
func (m Measurement) TimePer1000Queries(numQueries int) time.Duration {
	if numQueries == 0 {
		return 0
	}
	return time.Duration(int64(m.Time) * 1000 / int64(numQueries))
}

// RunWorkload runs every query of the environment's workload at normalized
// threshold theta through the algorithm.
func (s *Suite) RunWorkload(alg Algorithm, theta float64) (Measurement, error) {
	raw := ranking.RawThreshold(theta, s.Env.Cfg.K)
	ev := metric.New(nil)
	m := Measurement{Algorithm: alg, Theta: theta}
	start := time.Now()
	for _, q := range s.Env.Queries {
		res, err := s.Run(alg, q, raw, ev)
		if err != nil {
			return m, err
		}
		m.Results += len(res)
	}
	m.Time = time.Since(start)
	m.DFC = ev.Calls()
	return m, nil
}

// Table is the uniform output of every experiment: a titled grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}
