// Command benchmark is the repo's end-to-end benchmark: it generates an
// NYT-like collection, builds cmd/topkserve, and for each workload spawns a
// fresh server process and drives it over loopback HTTP with closed-loop
// clients. See README.md for the workloads, the metrics and their bounds.
//
//	bash benchmark/run.sh -seed 1            # all four workloads, end to end
//	bash benchmark/run.sh -seed 1 -trace 1   # plus the per-layer table and trace.json
//	bash benchmark/run.sh -smoke             # the same code at n = 5000, for iteration
//
// The contract form runs one workload and ends with one JSON line:
//
//	bash benchmark/run.sh --workload knn_uniform --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// gated are the end-to-end metrics BENCHMARK.json bounds; they exist on
// every workload. The table prints more: lat_p99_ms is end-to-end too, but on
// the two shared cores of the sandbox its spread between runs of one binary
// does not stay inside any bound the contract allows, so it is reported here
// and as client.lat_p99_ms by the traced run and gated nowhere; write_p50_ms
// and recover_s exist only where there are writes; failed_share travels as
// the contract's attempted/failed pair and the exit code.
var gated = []string{"setup_s", "throughput_ops_s", "lat_p50_ms", "cpu_us_per_op"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wlName  = flag.String("workload", "", "run only this workload and end with the contract's JSON line (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the query and operation lists; the collection is the same for every seed")
		seconds = flag.Int("seconds", 0, "measured seconds per workload (default 20; 2 with -smoke)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace.json (in the contract form, instead of the end-to-end run)")
		smoke   = flag.Bool("smoke", false, "n = 5000 and 1/50 of the operation counts, for iteration")
		n       = flag.Int("n", 0, "collection size (default 200000; 5000 with -smoke)")
		root    = flag.String("root", "", "repository root (default: found from the working directory)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale()
	}
	switch {
	case *seconds < 0:
		return fmt.Errorf("-seconds must be at least 1")
	case *seconds == 0 && *smoke:
		*seconds = 2
	case *seconds == 0:
		*seconds = 20
	}
	if *n > 0 {
		sc.n = *n
	}
	names := workloadNames
	if *wlName != "" {
		if _, ok := why[*wlName]; !ok {
			return fmt.Errorf("unknown workload %q (have %v)", *wlName, workloadNames)
		}
		names = []string{*wlName}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	repo, err := findRoot(*root)
	if err != nil {
		return err
	}
	build := filepath.Join(repo, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	// Everything a run leaves behind — snapshot, WAL directories, trace —
	// lives under one scratch directory that goes away on every exit path,
	// SIGINT included (the signal cancels ctx and run returns).
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err := buildServer(ctx, repo, build)
	if err != nil {
		return err
	}
	e, err := newEnv(work, bin, sc, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		return err
	}
	if *trace == 1 {
		e.spans = newRecorder()
	}
	printEnvironment(repo, e)

	var last *report
	failed := false
	for _, name := range names {
		if *wlName == "" || *trace == 0 {
			if last, err = e.measure(ctx, name); err != nil {
				return err
			}
			printReport(last)
			failed = failed || !last.correct()
		}
		if *trace == 1 {
			if last, err = e.traced(ctx, name); err != nil {
				return err
			}
			printReport(last)
			failed = failed || !last.correct()
		}
	}
	if *trace == 1 {
		out := filepath.Join(build, "trace.json")
		if err := e.spans.write(out); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(e.spans.spans), out)
	}
	if *wlName != "" {
		if err := printContractLine(last, *trace == 1); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("failed operations or verification mismatches; see the notes above")
	}
	return nil
}

// findRoot locates the repository root: the directory holding cmd/topkserve.
func findRoot(flagRoot string) (string, error) {
	candidates := []string{".", ".."}
	if flagRoot != "" {
		candidates = []string{flagRoot}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "topkserve", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("cmd/topkserve not found from %v: run from the repository root or pass -root", candidates)
}

// buildServer compiles cmd/topkserve from the checkout, off the clock.
func buildServer(ctx context.Context, repo, build string) (string, error) {
	bin := filepath.Join(build, "bin", "topkserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/topkserve")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/topkserve: %v\n%s", err, out)
	}
	return bin, nil
}

func printEnvironment(repo string, e *env) {
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = repo
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# environment: commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d n=%d k=%d seconds=%v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), e.seed, e.sc.n, e.sc.k, e.seconds)
}

// printReport prints one workload's metrics, one per row, by name with unit
// and sample count.
func printReport(r *report) {
	fmt.Printf("\n## %s — %s\n# %d closed-loop clients; server flags: %s\n", r.workload, why[r.workload], r.clients, strings.Join(r.flags, " "))
	row := func(m reading) {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d", m.n)
			if strings.Contains(m.name, "_p99") && supportedTail(m.n) < 0.99 {
				samples += " (fewer than ten samples beyond p99)"
			}
		}
		fmt.Printf("%-14s %-36s %14.4f %-6s %s\n", r.workload, m.name, m.value, m.unit, samples)
	}
	for _, m := range r.endToEnd {
		row(m)
	}
	for _, m := range r.layers {
		row(m)
	}
	fmt.Printf("%-14s attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
}

// printContractLine prints the last stdout line the benchmark contract
// reads: the gated end-to-end metrics of an untraced run, or every per-layer
// metric of a traced one.
func printContractLine(r *report, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, m := range r.layers {
			metrics[m.name] = value{m.value, m.unit}
		}
	} else {
		for _, m := range r.endToEnd {
			if slices.Contains(gated, m.name) {
				metrics[m.name] = value{m.value, m.unit}
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
