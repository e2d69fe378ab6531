// Command topkbench reproduces the paper's experiments. Each experiment id
// corresponds to a table or figure of the evaluation section (§7); running
// with -experiment all regenerates all of them.
//
// Usage:
//
//	topkbench -experiment fig8 [-scale small|default] [-k 10]
//	topkbench -experiment all -scale small
//	topkbench -experiment kernels -json bench.json
//
// Experiments: stats fig3 fig5 fig6 fig7 tab5 fig8 fig9 fig10 tab6 kernels
//
// The kernels experiment is the one id not from the paper: it
// microbenchmarks the distance-kernel layer — single vs compiled Footrule,
// query compilation, full candidate-buffer validation via the scalar path vs
// the batched flat-store kernel, and posting-list collection, across
// k ∈ {10,25,50} and candidate counts n ∈ {1000,4000}, plus one exact 10-NN
// query through the inverted index's native single-pass KNN vs the
// doubling-radius reduction at k ∈ {10,25}, n ∈ {4000,20000}. -json writes
// the records (BENCH_kernels.json) that cmd/benchgate diffs in CI against
// the committed baseline.
//
// Everything about the serving stack (hybrid routing, compactions, WAL
// cost, overload, tenants) is measured over a socket by
// `bash benchmark/run.sh`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"topk/internal/bench"
	"topk/internal/dataset"
	"topk/internal/stats"
)

// paperIDs are the §7 experiments in the paper's order; "all" runs them.
var paperIDs = []string{"stats", "fig3", "fig5", "fig6", "fig7", "tab5", "fig8", "fig9", "fig10", "tab6"}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id: "+strings.Join(paperIDs, "|")+"|kernels|all")
		scaleName  = flag.String("scale", "small", "dataset scale: small|medium|default")
		k          = flag.Int("k", 10, "ranking size for the single-k experiments")
		jsonPath   = flag.String("json", "", "write the kernels experiment's machine-readable records to this file")
	)
	flag.Parse()

	sc := bench.SmallScale()
	switch *scaleName {
	case "default":
		sc = bench.DefaultScale()
	case "medium":
		sc = bench.MediumScale()
	case "small":
	default:
		usageError("unknown scale %q", *scaleName)
	}

	ids := paperIDs
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Every id is checked before the first one runs: a typo at the end of the
	// list must not cost the minutes the ids before it take.
	for _, id := range ids {
		if id != "kernels" && !slices.Contains(paperIDs, id) {
			usageError("unknown experiment id %q; valid ids: %s kernels all\n"+
				"serving-stack numbers (hybrid routing, rebuild, WAL, overload, tenants) come from `bash benchmark/run.sh`",
				id, strings.Join(paperIDs, " "))
		}
	}
	if *jsonPath != "" && !slices.Contains(ids, "kernels") {
		usageError("-json writes the kernels experiment's records; add kernels to -experiment")
	}
	for _, id := range ids {
		var err error
		if id == "kernels" {
			err = runKernels(*jsonPath)
		} else {
			err = run(id, sc, *k)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// runKernels microbenchmarks the distance-kernel layer and optionally writes
// the machine-readable records the CI perf gate (cmd/benchgate) consumes.
// The grid is fixed — it is the committed-baseline contract, not scaled.
func runKernels(jsonPath string) error {
	recs, t, err := bench.Kernels([]int{10, 25, 50}, []int{1000, 4000})
	if err != nil {
		return err
	}
	t.Fprint(os.Stdout)
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := bench.WriteKernelJSON(f, recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d kernel records to %s\n", len(recs), jsonPath)
	return nil
}

func run(id string, sc bench.Scale, k int) error {
	thetas := []float64{0, 0.1, 0.2, 0.3}
	grid := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	opts := bench.DefaultSuiteOptions()

	needEnvs := func() (*bench.Env, *bench.Env, error) { return bench.Envs(sc, k) }

	switch id {
	case "stats":
		nyt, yago, err := needEnvs()
		if err != nil {
			return err
		}
		for _, env := range []*bench.Env{nyt, yago} {
			sum := stats.Summarize(env.Rankings, 20000, 9)
			t := bench.Table{
				Title:   fmt.Sprintf("Dataset statistics (%s)", env.Name),
				Columns: []string{"metric", "value"},
				Rows: [][]string{
					{"rankings", fmt.Sprint(sum.N)},
					{"k", fmt.Sprint(sum.K)},
					{"distinct items", fmt.Sprint(sum.DistinctItems)},
					{"Zipf s (head fit)", fmt.Sprintf("%.2f", env.ZipfS)},
					{"mean pairwise distance", fmt.Sprintf("%.1f", sum.MeanDistance)},
					{"intrinsic dimensionality", fmt.Sprintf("%.1f", sum.IntrinsicDim)},
					{"exact-duplicate rate", fmt.Sprintf("%.2f", sum.DuplicateRate)},
				},
			}
			t.Fprint(os.Stdout)
		}
		return nil
	case "fig3":
		nyt, yago, err := needEnvs()
		if err != nil {
			return err
		}
		for _, env := range []*bench.Env{nyt, yago} {
			t, err := bench.Figure3(env, 0.2)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
		}
		return nil
	case "fig5":
		t, err := bench.Figure5(sc, []int{5, 10, 15, 20, 25}, []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3})
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		return nil
	case "fig6":
		t, err := bench.Figure6(sc, []int{5, 10, 15, 20, 25}, []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3})
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		return nil
	case "fig7":
		nyt, yago, err := needEnvs()
		if err != nil {
			return err
		}
		for _, env := range []*bench.Env{nyt, yago} {
			t, err := bench.Figure7(env, 0.2, grid)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
		}
		return nil
	case "tab5":
		nyt, yago, err := needEnvs()
		if err != nil {
			return err
		}
		for _, env := range []*bench.Env{nyt, yago} {
			t, err := bench.Table5(env, []float64{0.1, 0.2, 0.3}, grid)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
		}
		return nil
	case "fig8", "fig9":
		for _, kk := range []int{k, 2 * k} {
			var env *bench.Env
			var err error
			if id == "fig8" {
				env, err = bench.NewEnv("NYT-like", dataset.NYTLike(sc.NNYT, kk), sc.NumQueries)
			} else {
				env, err = bench.NewEnv("Yago-like", dataset.YagoLike(sc.NYago, kk), sc.NumQueries)
			}
			if err != nil {
				return err
			}
			t, err := bench.Figure8and9(env, thetas, opts)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
		}
		return nil
	case "fig10":
		nyt, yago, err := needEnvs()
		if err != nil {
			return err
		}
		for _, env := range []*bench.Env{nyt, yago} {
			t, err := bench.Figure10(env, thetas, opts)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
		}
		return nil
	case "tab6":
		nyt, yago, err := needEnvs()
		if err != nil {
			return err
		}
		for _, env := range []*bench.Env{nyt, yago} {
			t, err := bench.Table6(env, opts)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
}
