// Command topkgen generates synthetic ranking collections with the
// statistical fingerprint of the paper's benchmarks and writes them either
// as text (one ranking per line, parseable by topkquery) or as a paged v3
// snapshot of package persist (what topkserve and topkquery -load-snapshot
// read).
//
// Usage:
//
//	topkgen -preset nyt -n 25000 -k 10 -o rankings.txt
//	topkgen -preset yago -format binary -o rankings.v3
//	topkgen -n 1000 -k 10 -zipf 0.7 -cluster 0.4 -stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"topk/internal/dataset"
	"topk/internal/persist"
	"topk/internal/stats"
)

func main() {
	var (
		preset    = flag.String("preset", "", "nyt|yago (overrides zipf/cluster/domain)")
		n         = flag.Int("n", 10000, "number of rankings")
		k         = flag.Int("k", 10, "ranking size")
		v         = flag.Int("v", 0, "item domain size (0 = preset/derived)")
		zipfS     = flag.Float64("zipf", 0.8, "Zipf skew of item popularity")
		cluster   = flag.Float64("cluster", 0.4, "near-duplicate cluster rate")
		dup       = flag.Float64("dup", 0.15, "exact-duplicate rate within clusters")
		seed      = flag.Int64("seed", 1, "generation seed")
		out       = flag.String("o", "-", "output path (- = stdout)")
		format    = flag.String("format", "text", "text|binary")
		showStats = flag.Bool("stats", false, "print dataset statistics to stderr")
	)
	flag.Parse()

	var cfg dataset.Config
	switch *preset {
	case "nyt":
		cfg = dataset.NYTLike(*n, *k)
	case "yago":
		cfg = dataset.YagoLike(*n, *k)
	case "":
		dv := *v
		if dv == 0 {
			dv = 2 * *n
		}
		cfg = dataset.Config{
			N: *n, K: *k, V: dv, ZipfS: *zipfS,
			ClusterRate: *cluster, MaxPerturbations: 3, DuplicateRate: *dup, Seed: *seed,
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		os.Exit(2)
	}
	cfg.Seed = *seed

	rs, err := dataset.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *showStats {
		sum := stats.Summarize(rs, 20000, *seed+1)
		fmt.Fprintf(os.Stderr, "n=%d k=%d distinct=%d zipf≈%.2f meanDist=%.1f intrinsicDim=%.1f dupRate=%.2f\n",
			sum.N, sum.K, sum.DistinctItems, sum.ZipfS, sum.MeanDistance, sum.IntrinsicDim, sum.DuplicateRate)
	}

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer w.Close()
	}

	switch *format {
	case "text":
		bw := bufio.NewWriter(w)
		for _, r := range rs {
			fmt.Fprintln(bw, r.String())
		}
		if err := bw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "binary":
		if _, err := persist.WritePagedTo(w, rs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
}
