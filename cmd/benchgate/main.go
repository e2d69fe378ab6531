// Command benchgate is the CI perf-trajectory gate. It compares a freshly
// measured kernels-benchmark run (topkbench -experiment kernels -json ...)
// against the committed baseline BENCH_kernels.json and fails — exit status
// 1 — if any benchmark regressed beyond noise: its median ns/op is more than
// the threshold above the baseline's and the two runs' [min, max] spreads do
// not overlap. A shared CI host drifts by more than any useful threshold
// between two single measurements; the spread is each row's own noise floor.
//
// Usage:
//
//	benchgate -baseline BENCH_kernels.json -current bench.json [-threshold 0.10]
//
// The markdown delta table it prints is meant to be teed into
// $GITHUB_STEP_SUMMARY so every CI run shows the per-benchmark trajectory.
// Benchmarks present on only one side are reported (new/removed) but do not
// fail the gate; renaming a benchmark requires regenerating the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"topk/internal/bench"
)

// load reads one side's records. A duplicate name, or a record without a
// sane min ≤ median ≤ max spread (a file recorded before the spread existed),
// cannot be gated and is an error.
func load(path string) ([]bench.KernelRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []bench.KernelRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.Name] {
			return nil, fmt.Errorf("%s: duplicate benchmark name %q", path, r.Name)
		}
		seen[r.Name] = true
		if r.MinNsPerOp <= 0 || r.MinNsPerOp > r.NsPerOp || r.NsPerOp > r.MaxNsPerOp {
			return nil, fmt.Errorf("%s: %q has no min ≤ median ≤ max ns/op spread (%d, %d, %d); re-record with topkbench -experiment kernels -json",
				path, r.Name, r.MinNsPerOp, r.NsPerOp, r.MaxNsPerOp)
		}
	}
	return recs, nil
}

// gate writes the delta table and returns how many benchmarks regressed.
func gate(w io.Writer, base, cur []bench.KernelRecord, threshold float64) int {
	curBy := make(map[string]bench.KernelRecord, len(cur))
	for _, c := range cur {
		curBy[c.Name] = c
	}

	fmt.Fprintf(w, "### Kernel benchmark trajectory (gate: +%.0f%% median ns/op and disjoint spreads)\n\n", threshold*100)
	fmt.Fprintln(w, "| benchmark | baseline ns/op [min, max] | current ns/op [min, max] | delta | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	cell := func(r bench.KernelRecord) string {
		return fmt.Sprintf("%d [%d, %d]", r.NsPerOp, r.MinNsPerOp, r.MaxNsPerOp)
	}
	regressions, inBase := 0, make(map[string]bool, len(base))
	for _, b := range base {
		inBase[b.Name] = true
		c, ok := curBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "| %s | %s | — | — | removed |\n", b.Name, cell(b))
			continue
		}
		delta := float64(c.NsPerOp-b.NsPerOp) / float64(b.NsPerOp)
		status := "ok"
		if delta > threshold {
			if c.MinNsPerOp > b.MaxNsPerOp {
				status = "**REGRESSION**"
				regressions++
			} else {
				status = "ok (within noise)"
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%% | %s |\n", b.Name, cell(b), cell(c), delta*100, status)
	}
	for _, c := range cur {
		if !inBase[c.Name] {
			fmt.Fprintf(w, "| %s | — | %s | — | new |\n", c.Name, cell(c))
		}
	}
	fmt.Fprintln(w)
	return regressions
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_kernels.json", "committed baseline records")
		currentPath  = flag.String("current", "", "freshly measured records to gate")
		threshold    = flag.Float64("threshold", 0.10, "allowed fractional regression of the median ns/op before failing")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if n := gate(os.Stdout, base, cur, *threshold); n > 0 {
		fmt.Printf("%d benchmark(s) regressed beyond the %.0f%% gate.\n", n, *threshold*100)
		os.Exit(1)
	}
	fmt.Println("All benchmarks within the regression gate.")
}
