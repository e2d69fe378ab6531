// Command benchgate is the CI perf-trajectory gate. It compares a freshly
// measured kernels-benchmark run (topkbench -experiment kernels -json ...)
// against the committed baseline BENCH_kernels.json and fails — exit status
// 1 — if any benchmark's ns/op regressed by more than the threshold.
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
	"os"
	"sort"
)

type record struct {
	Name    string `json:"name"`
	K       int    `json:"k"`
	N       int    `json:"n"`
	NsPerOp int64  `json:"nsPerOp"`
}

func load(path string) (map[string]record, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]record, len(recs))
	var order []string
	for _, r := range recs {
		if _, dup := m[r.Name]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate benchmark name %q", path, r.Name)
		}
		m[r.Name] = r
		order = append(order, r.Name)
	}
	return m, order, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_kernels.json", "committed baseline records")
		currentPath  = flag.String("current", "", "freshly measured records to gate")
		threshold    = flag.Float64("threshold", 0.10, "allowed fractional ns/op regression before failing")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, baseOrder, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, curOrder, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("### Kernel benchmark trajectory (gate: +%.0f%% ns/op)\n\n", *threshold*100)
	fmt.Println("| benchmark | baseline ns/op | current ns/op | delta | status |")
	fmt.Println("|---|---:|---:|---:|---|")
	regressions := 0
	for _, name := range baseOrder {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("| %s | %d | — | — | removed |\n", name, b.NsPerOp)
			continue
		}
		delta := float64(c.NsPerOp-b.NsPerOp) / float64(b.NsPerOp)
		status := "ok"
		if delta > *threshold {
			status = "**REGRESSION**"
			regressions++
		}
		fmt.Printf("| %s | %d | %d | %+.1f%% | %s |\n", name, b.NsPerOp, c.NsPerOp, delta*100, status)
	}
	sort.Strings(curOrder)
	for _, name := range curOrder {
		if _, ok := base[name]; !ok {
			fmt.Printf("| %s | — | %d | — | new |\n", name, cur[name].NsPerOp)
		}
	}
	fmt.Println()
	if regressions > 0 {
		fmt.Printf("%d benchmark(s) regressed beyond the %.0f%% gate.\n", regressions, *threshold*100)
		os.Exit(1)
	}
	fmt.Println("All benchmarks within the regression gate.")
}
