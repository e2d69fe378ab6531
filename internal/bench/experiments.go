package bench

import (
	"fmt"
	"math"
	"time"

	"topk/internal/bktree"
	"topk/internal/coarse"
	"topk/internal/costmodel"
	"topk/internal/dataset"
	"topk/internal/invindex"
	"topk/internal/mtree"
	"topk/internal/ranking"
)

// Scale controls experiment sizes. The paper runs 1M NYT rankings and
// 25,000 Yago rankings with 1000 queries; Default preserves the n ratio at
// laptop scale and Small keeps CI fast.
type Scale struct {
	NNYT       int
	NYago      int
	NumQueries int
}

// DefaultScale is used by the topkbench CLI.
func DefaultScale() Scale { return Scale{NNYT: 60000, NYago: 25000, NumQueries: 1000} }

// SmallScale keeps the full experiment matrix runnable in seconds.
func SmallScale() Scale { return Scale{NNYT: 4000, NYago: 2500, NumQueries: 100} }

// MediumScale is where the paper's scale-dependent crossovers (inverted
// index vs BK-tree, Coarse+Drop vs AdaptSearch) become visible while the
// full matrix still runs in minutes.
func MediumScale() Scale { return Scale{NNYT: 20000, NYago: 10000, NumQueries: 500} }

// Envs builds the two benchmark environments at ranking size k.
func Envs(sc Scale, k int) (nyt, yago *Env, err error) {
	nyt, err = NewEnv("NYT-like", dataset.NYTLike(sc.NNYT, k), sc.NumQueries)
	if err != nil {
		return nil, nil, err
	}
	yago, err = NewEnv("Yago-like", dataset.YagoLike(sc.NYago, k), sc.NumQueries)
	if err != nil {
		return nil, nil, err
	}
	return nyt, yago, nil
}

// modelFor builds and calibrates the Section 5 cost model for an Env.
func modelFor(env *Env) (*costmodel.Model, error) {
	m, err := costmodel.New(len(env.Rankings), env.Cfg.K, env.V, env.ZipfS, env.CDF)
	if err != nil {
		return nil, err
	}
	m.Calibrate(42)
	return m, nil
}

// Figure3 reproduces the cost-model curves: modeled filter, validate and
// overall cost against θC at k, θ = 0.2, for one environment.
func Figure3(env *Env, theta float64) (Table, error) {
	m, err := modelFor(env)
	if err != nil {
		return Table{}, err
	}
	k := env.Cfg.K
	rawTheta := ranking.RawThreshold(theta, k)
	grid := costmodel.DefaultGrid(k)
	t := Table{
		Title:   fmt.Sprintf("Figure 3 (%s): modeled cost vs θC, k=%d, θ=%.1f", env.Name, k, theta),
		Columns: []string{"thetaC", "filter", "validate", "overall"},
	}
	for _, c := range m.Sweep(rawTheta, grid) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", float64(c.ThetaC)/float64(ranking.MaxDistance(k))),
			fmt.Sprintf("%.0f", c.Filter),
			fmt.Sprintf("%.0f", c.Validate),
			fmt.Sprintf("%.0f", c.Overall()),
		})
	}
	best := m.OptimalThetaC(rawTheta, grid)
	t.Notes = append(t.Notes, fmt.Sprintf("model-optimal θC = %.2f (raw %d); s=%.2f, n=%d, v'=%d",
		float64(best)/float64(ranking.MaxDistance(k)), best, env.ZipfS, len(env.Rankings), env.V))
	return t, nil
}

// Figure5 compares the M-tree against the BK-tree: wall-clock for the
// workload when varying k at θ=0.1, and when varying θ at k=10.
func Figure5(sc Scale, ks []int, thetas []float64) (Table, error) {
	t := Table{
		Title:   "Figure 5 (NYT-like): M-tree vs BK-tree",
		Columns: []string{"sweep", "value", "BK-tree", "M-tree", "results"},
	}
	for _, k := range ks {
		env, err := NewEnv("NYT-like", dataset.NYTLike(sc.NNYT, k), sc.NumQueries)
		if err != nil {
			return t, err
		}
		bkT, mtT, res, err := treeShowdown(env, 0.1)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{"k (θ=0.1)", fmt.Sprint(k), ms(bkT), ms(mtT), fmt.Sprint(res)})
	}
	env, err := NewEnv("NYT-like", dataset.NYTLike(sc.NNYT, 10), sc.NumQueries)
	if err != nil {
		return t, err
	}
	bk, errBK := bktree.New(env.Rankings, nil)
	if errBK != nil {
		return t, errBK
	}
	mt, errMT := mtree.New(env.Rankings, nil)
	if errMT != nil {
		return t, errMT
	}
	for _, theta := range thetas {
		raw := ranking.RawThreshold(theta, 10)
		bkT, res := timeTree(func(q ranking.Ranking) int { return len(bk.RangeSearch(q, raw, nil)) }, env.Queries)
		mtT, _ := timeTree(func(q ranking.Ranking) int { return len(mt.RangeSearch(q, raw, nil)) }, env.Queries)
		t.Rows = append(t.Rows, []string{"θ (k=10)", fmt.Sprintf("%.2f", theta), ms(bkT), ms(mtT), fmt.Sprint(res)})
	}
	t.Notes = append(t.Notes, "times are ms per workload; paper shape: BK-tree below M-tree everywhere")
	return t, nil
}

func treeShowdown(env *Env, theta float64) (bkT, mtT time.Duration, results int, err error) {
	bk, err := bktree.New(env.Rankings, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	mt, err := mtree.New(env.Rankings, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	raw := ranking.RawThreshold(theta, env.Cfg.K)
	bkT, results = timeTree(func(q ranking.Ranking) int { return len(bk.RangeSearch(q, raw, nil)) }, env.Queries)
	mtT, _ = timeTree(func(q ranking.Ranking) int { return len(mt.RangeSearch(q, raw, nil)) }, env.Queries)
	return bkT, mtT, results, nil
}

func timeTree(run func(q ranking.Ranking) int, queries []ranking.Ranking) (time.Duration, int) {
	start := time.Now()
	total := 0
	for _, q := range queries {
		total += run(q)
	}
	return time.Since(start), total
}

// Figure6 compares the BK-tree against the plain inverted-index F&V.
func Figure6(sc Scale, ks []int, thetas []float64) (Table, error) {
	t := Table{
		Title:   "Figure 6 (NYT-like): BK-tree vs inverted index (F&V)",
		Columns: []string{"sweep", "value", "BK-tree", "F&V", "results"},
	}
	for _, k := range ks {
		env, err := NewEnv("NYT-like", dataset.NYTLike(sc.NNYT, k), sc.NumQueries)
		if err != nil {
			return t, err
		}
		bk, err := bktree.New(env.Rankings, nil)
		if err != nil {
			return t, err
		}
		inv, err := invindex.New(env.Rankings)
		if err != nil {
			return t, err
		}
		is := invindex.NewSearcher(inv)
		raw := ranking.RawThreshold(0.1, k)
		bkT, res := timeTree(func(q ranking.Ranking) int { return len(bk.RangeSearch(q, raw, nil)) }, env.Queries)
		fvT, _ := timeTree(func(q ranking.Ranking) int {
			r, _ := is.FilterValidate(q, raw, nil)
			return len(r)
		}, env.Queries)
		t.Rows = append(t.Rows, []string{"k (θ=0.1)", fmt.Sprint(k), ms(bkT), ms(fvT), fmt.Sprint(res)})
	}
	env, err := NewEnv("NYT-like", dataset.NYTLike(sc.NNYT, 10), sc.NumQueries)
	if err != nil {
		return t, err
	}
	bk, err := bktree.New(env.Rankings, nil)
	if err != nil {
		return t, err
	}
	inv, err := invindex.New(env.Rankings)
	if err != nil {
		return t, err
	}
	is := invindex.NewSearcher(inv)
	for _, theta := range thetas {
		raw := ranking.RawThreshold(theta, 10)
		bkT, res := timeTree(func(q ranking.Ranking) int { return len(bk.RangeSearch(q, raw, nil)) }, env.Queries)
		fvT, _ := timeTree(func(q ranking.Ranking) int {
			r, _ := is.FilterValidate(q, raw, nil)
			return len(r)
		}, env.Queries)
		t.Rows = append(t.Rows, []string{"θ (k=10)", fmt.Sprintf("%.2f", theta), ms(bkT), ms(fvT), fmt.Sprint(res)})
	}
	t.Notes = append(t.Notes, "paper shape: inverted index below BK-tree everywhere")
	return t, nil
}

// ThetaCPoint is one θC operating point of Figure 7.
type ThetaCPoint struct {
	ThetaC     float64
	Filter     time.Duration
	Validate   time.Duration
	Overall    time.Duration
	Partitions int
}

// Figure7Sweep measures the coarse index phase breakdown for the θC grid.
func Figure7Sweep(env *Env, theta float64, grid []float64) ([]ThetaCPoint, error) {
	k := env.Cfg.K
	raw := ranking.RawThreshold(theta, k)
	points := make([]ThetaCPoint, 0, len(grid))
	for _, tc := range grid {
		idx, err := coarse.New(env.Rankings, ranking.RawThreshold(tc, k), coarse.Options{})
		if err != nil {
			return nil, err
		}
		s := coarse.NewSearcher(idx)
		var p ThetaCPoint
		p.ThetaC = tc
		p.Partitions = idx.NumPartitions()
		start := time.Now()
		for _, q := range env.Queries {
			_, st, err := s.QueryStats(q, raw, nil, coarse.FV)
			if err != nil {
				return nil, err
			}
			p.Filter += st.FilterTime
			p.Validate += st.ValidateTime
		}
		p.Overall = time.Since(start)
		points = append(points, p)
	}
	return points, nil
}

// Figure7 renders the sweep plus the model-chosen θC marker.
func Figure7(env *Env, theta float64, grid []float64) (Table, error) {
	points, err := Figure7Sweep(env, theta, grid)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 7 (%s): coarse index phase times vs θC, k=%d, θ=%.1f", env.Name, env.Cfg.K, theta),
		Columns: []string{"thetaC", "filter_ms", "validate_ms", "overall_ms", "partitions"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", p.ThetaC), ms(p.Filter), ms(p.Validate), ms(p.Overall),
			fmt.Sprint(p.Partitions),
		})
	}
	m, err := modelFor(env)
	if err != nil {
		return t, err
	}
	k := env.Cfg.K
	best := m.OptimalThetaC(ranking.RawThreshold(theta, k), costmodel.DefaultGrid(k))
	t.Notes = append(t.Notes, fmt.Sprintf("model-chosen θC = %.2f (the ▫ marker of Figure 7)",
		float64(best)/float64(ranking.MaxDistance(k))))
	return t, nil
}

// Table5 reports, per θ, the gap between the coarse index runtime at the
// empirically best θC and at the model-chosen θC.
func Table5(env *Env, thetas []float64, grid []float64) (Table, error) {
	t := Table{
		Title:   fmt.Sprintf("Table 5 (%s): model-chosen vs empirically best θC (k=%d)", env.Name, env.Cfg.K),
		Columns: []string{"theta", "best_thetaC", "best_ms", "model_thetaC", "model_ms", "diff_ms"},
	}
	m, err := modelFor(env)
	if err != nil {
		return t, err
	}
	k := env.Cfg.K
	for _, theta := range thetas {
		points, err := Figure7Sweep(env, theta, grid)
		if err != nil {
			return t, err
		}
		best := points[0]
		for _, p := range points[1:] {
			if p.Overall < best.Overall {
				best = p
			}
		}
		rawBest := m.OptimalThetaC(ranking.RawThreshold(theta, k), costmodel.DefaultGrid(k))
		modelTC := float64(rawBest) / float64(ranking.MaxDistance(k))
		// Runtime at the grid point closest to the model choice.
		var modelPoint ThetaCPoint
		bestGap := math.Inf(1)
		for _, p := range points {
			if gap := math.Abs(p.ThetaC - modelTC); gap < bestGap {
				bestGap = gap
				modelPoint = p
			}
		}
		diff := modelPoint.Overall - best.Overall
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", theta),
			fmt.Sprintf("%.2f", best.ThetaC), ms(best.Overall),
			fmt.Sprintf("%.2f", modelPoint.ThetaC), ms(modelPoint.Overall),
			ms(diff),
		})
	}
	t.Notes = append(t.Notes, "paper: diff ≤ 29.47ms (NYT) and ≤ 3.28ms (Yago) per 1000 queries")
	return t, nil
}

// Figure8and9 compares all algorithms on one environment for a set of
// thresholds (Figure 8 = NYT-like, Figure 9 = Yago-like).
func Figure8and9(env *Env, thetas []float64, opts SuiteOptions) (Table, error) {
	opts.SkipTrees = true
	opts.Thetas = thetas
	suite, err := BuildSuite(env, opts)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:   fmt.Sprintf("Figures 8/9 (%s): algorithm comparison, k=%d (ms per %d queries)", env.Name, env.Cfg.K, len(env.Queries)),
		Columns: append([]string{"algorithm"}, thetaHeaders(thetas)...),
	}
	for _, alg := range AllAlgorithms {
		row := []string{string(alg)}
		for _, theta := range thetas {
			mm, err := suite.RunWorkload(alg, theta)
			if err != nil {
				return t, err
			}
			row = append(row, ms(mm.Time))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Coarse θC=%.2f; Coarse+Drop θC=%.2f", opts.CoarseThetaC, opts.CoarseDropThetaC))
	return t, nil
}

// Figure10 reports the distance function calls of the filter-and-validate
// family, per threshold.
func Figure10(env *Env, thetas []float64, opts SuiteOptions) (Table, error) {
	opts.SkipTrees = true
	opts.Thetas = thetas
	suite, err := BuildSuite(env, opts)
	if err != nil {
		return Table{}, err
	}
	algs := []Algorithm{AlgFV, AlgFVDrop, AlgBlockedPruneDrop, AlgCoarse, AlgCoarseDrop, AlgMinimalFV}
	t := Table{
		Title:   fmt.Sprintf("Figure 10 (%s): distance function calls (thousands), k=%d", env.Name, env.Cfg.K),
		Columns: append([]string{"algorithm"}, thetaHeaders(thetas)...),
	}
	for _, alg := range algs {
		row := []string{string(alg)}
		for _, theta := range thetas {
			mm, err := suite.RunWorkload(alg, theta)
			if err != nil {
				return t, err
			}
			row = append(row, fmt.Sprintf("%.1f", float64(mm.DFC)/1000.0))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "Minimal F&V's DFC equals the result count — the lower bound",
		"F&V+Drop (and Coarse+Drop's medoid filter) validates only the candidates the rank-augmented postings leave undecided, not every kept-list candidate as in the paper")
	return t, nil
}

// Table6 reports index sizes and construction times for k=10.
func Table6(env *Env, opts SuiteOptions) (Table, error) {
	opts.SkipMinimal = true
	suite, err := BuildSuite(env, opts)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:   fmt.Sprintf("Table 6 (%s): index size and construction time (k=%d, n=%d)", env.Name, env.Cfg.K, len(env.Rankings)),
		Columns: []string{"index", "size_MB", "construction"},
	}
	mb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1024*1024)) }
	t.Rows = append(t.Rows, []string{"Plain Inverted Index", mb(suite.inv.SizeBytes(false)), suite.BuildTimes["Augmented Inverted Index"].String()})
	t.Rows = append(t.Rows, []string{"Augmented Inverted Index", mb(suite.inv.SizeBytes(true)), suite.BuildTimes["Augmented Inverted Index"].String()})
	t.Rows = append(t.Rows, []string{"Delta Inverted Index", mb(suite.adapt.SizeBytes()), suite.BuildTimes["Delta Inverted Index"].String()})
	for _, alg := range []Algorithm{AlgBKTree, AlgMTree} {
		if tr, ok := suite.trees[alg]; ok {
			t.Rows = append(t.Rows, []string{string(alg), mb(tr.SizeBytes()), suite.BuildTimes[string(alg)].String()})
		}
	}
	coarseName := fmt.Sprintf("Coarse Index (θC=%.2f)", opts.CoarseThetaC)
	t.Rows = append(t.Rows, []string{"Coarse Index", mb(suite.coarse.SizeBytes()), suite.BuildTimes[coarseName].String()})
	t.Notes = append(t.Notes, fmt.Sprintf("coarse index: %d partitions, %d build DFC",
		suite.coarse.NumPartitions(), suite.coarse.BuildDFC))
	return t, nil
}

func thetaHeaders(thetas []float64) []string {
	hs := make([]string, len(thetas))
	for i, t := range thetas {
		hs[i] = fmt.Sprintf("θ=%.1f", t)
	}
	return hs
}
