// Command topkbench reproduces the paper's experiments. Each experiment id
// corresponds to a table or figure of the evaluation section; running with
// -experiment all regenerates everything EXPERIMENTS.md reports.
//
// Usage:
//
//	topkbench -experiment fig8 [-scale small|default] [-k 10]
//	topkbench -experiment all -scale small
//	topkbench -experiment sweep -json bench.json
//
// Experiments: fig3 fig5 fig6 fig7 tab5 fig8 fig9 fig10 tab6 stats sweep
// rebuild wal overload tenants kernels
//
// The sweep experiment measures every physical backend plus the hybrid
// engine across the θ grid on both datasets; -json <path> writes its
// records (backend, n, theta, distance calls, ns/op, hybrid plan counts) as
// machine-readable JSON — the BENCH_*.json perf trajectory — and implies
// the sweep when no experiment selects it.
//
// The rebuild experiment (also not from the paper) measures hybrid search
// latency before, during and after a background epoch rebuild: an insert
// burst pushes the mutation overlay past the rebuild ratio and queries keep
// running while the fold constructs fresh backends off-lock.
//
// The wal experiment (also not from the paper) measures the durability tax
// of the serving stack's write-ahead log: mutation-ack latency and
// throughput under each sync policy (synchronous commit, group commit,
// interval flush, none) plus search latency against a concurrent durable
// mutation stream, with the no-WAL baseline alongside; -json writes the
// records machine-readably.
//
// The overload experiment (also not from the paper) fires an open-loop
// query flood at several times the index's calibrated sustainable rate,
// once through topkserve's admission-control path (bounded concurrency +
// bounded queue, excess shed as 429s would be) and once unbounded. The
// records prove the traffic-hardening claim: with admission the accepted
// requests keep a bounded tail latency while the excess is shed
// explicitly; -json writes the two records (BENCH_overload.json).
//
// The tenants experiment (also not from the paper) measures the
// noisy-neighbor behavior of the multi-tenant serving core: two tenants
// share one admission capacity, one floods at several times the sustainable
// rate while the other sends paced traffic, once with both contending on
// the shared controller and once with per-tenant 0.5-weight carves (the
// registry's admission path for collections created with a weight). The
// records show the carves confining the flood's queueing to its own share,
// keeping the paced tenant's tail latency bounded; -json writes the four
// records (BENCH_tenants.json).
//
// The kernels experiment (also not from the paper) microbenchmarks the
// distance-kernel layer: single vs compiled Footrule, query compilation,
// full candidate-buffer validation via the scalar path vs the batched
// flat-store kernel, and posting-list collection, across k ∈ {10,25,50}
// and candidate counts n ∈ {1000,4000}, plus one exact 10-NN query through
// the inverted index's native single-pass KNN vs the doubling-radius
// reduction at k ∈ {10,25}, n ∈ {4000,20000}. -json writes the records
// (BENCH_kernels.json) that cmd/benchgate diffs in CI against the
// committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"topk/internal/bench"
	"topk/internal/dataset"
	"topk/internal/stats"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id: fig3|fig5|fig6|fig7|tab5|fig8|fig9|fig10|tab6|stats|sweep|rebuild|wal|overload|tenants|kernels|all")
		scaleName  = flag.String("scale", "small", "dataset scale: small|medium|default")
		k          = flag.Int("k", 10, "ranking size for the single-k experiments")
		jsonPath   = flag.String("json", "", "write the sweep's machine-readable records to this file (implies -experiment sweep)")
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
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = []string{"stats", "fig3", "fig5", "fig6", "fig7", "tab5", "fig8", "fig9", "fig10", "tab6"}
	}
	if *jsonPath != "" {
		// -json implies the sweep unless an experiment that writes its own
		// JSON records (sweep, wal, overload, tenants, kernels) is already
		// selected; selecting more than one with a single output path would
		// overwrite the earlier records.
		writers := 0
		for _, id := range ids {
			switch strings.TrimSpace(id) {
			case "sweep", "wal", "overload", "tenants", "kernels":
				writers++
			}
		}
		if writers > 1 {
			fmt.Fprintln(os.Stderr, "-json with more than one of sweep/wal/overload/tenants/kernels would overwrite records; run them separately")
			os.Exit(2)
		}
		if writers == 0 {
			ids = append(ids, "sweep")
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		switch id {
		case "sweep":
			if err := runSweep(sc, *k, *jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "experiment sweep: %v\n", err)
				os.Exit(1)
			}
		case "wal":
			if err := runWAL(sc, *k, *jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "experiment wal: %v\n", err)
				os.Exit(1)
			}
		case "overload":
			if err := runOverload(sc, *k, *jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "experiment overload: %v\n", err)
				os.Exit(1)
			}
		case "tenants":
			if err := runTenants(sc, *k, *jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "experiment tenants: %v\n", err)
				os.Exit(1)
			}
		case "kernels":
			if err := runKernels(*jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "experiment kernels: %v\n", err)
				os.Exit(1)
			}
		default:
			if err := run(id, sc, *k); err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
}

// runWAL measures the write-ahead log's durability overhead on the NYT-like
// dataset and optionally writes the per-policy records as JSON.
func runWAL(sc bench.Scale, k int, jsonPath string) error {
	nyt, _, err := bench.Envs(sc, k)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "topkbench-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	recs, t, err := bench.WALOverhead(nyt, 2000, 400, dir)
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
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d wal records to %s\n", len(recs), jsonPath)
	return nil
}

// runOverload floods a sharded coarse index past its sustainable rate with
// and without admission control and optionally writes the two records as
// JSON (the BENCH_overload.json artifact).
func runOverload(sc bench.Scale, k int, jsonPath string) error {
	nyt, _, err := bench.Envs(sc, k)
	if err != nil {
		return err
	}
	recs, t, err := bench.Overload(nyt, bench.OverloadConfig{})
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
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d overload records to %s\n", len(recs), jsonPath)
	return nil
}

// runTenants runs the noisy-neighbor experiment on the NYT-like dataset and
// optionally writes the four (mode, tenant) records as JSON (the
// BENCH_tenants.json artifact).
func runTenants(sc bench.Scale, k int, jsonPath string) error {
	nyt, _, err := bench.Envs(sc, k)
	if err != nil {
		return err
	}
	recs, t, err := bench.Tenants(nyt, bench.TenantsConfig{})
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
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d tenants records to %s\n", len(recs), jsonPath)
	return nil
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

// runSweep measures every backend and the hybrid engine on both datasets
// and optionally writes the machine-readable records.
func runSweep(sc bench.Scale, k int, jsonPath string) error {
	nyt, yago, err := bench.Envs(sc, k)
	if err != nil {
		return err
	}
	thetas := []float64{0, 0.1, 0.2, 0.3}
	var recs []bench.Record
	for _, env := range []*bench.Env{nyt, yago} {
		r, err := bench.Sweep(env, thetas)
		if err != nil {
			return err
		}
		recs = append(recs, r...)
	}
	bench.SweepTable(recs).Fprint(os.Stdout)
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := bench.WriteJSON(f, recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d sweep records to %s\n", len(recs), jsonPath)
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
	case "rebuild":
		nyt, _, err := needEnvs()
		if err != nil {
			return err
		}
		t, err := bench.RebuildLatency(nyt, 0.1, 200)
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
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
