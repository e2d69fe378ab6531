// Websearch: the query-suggestion scenario from the paper's introduction.
//
// A search engine logs, for every issued keyword query, the top-10 result
// documents. To suggest related historic queries for a newly issued one, it
// searches the logged result rankings for those similar to the new query's
// result ranking. This example simulates such a log (NYT-like: heavy
// document-popularity skew, many reformulated near-duplicate queries),
// builds the auto-tuned coarse index, and compares it against the plain
// filter-and-validate baseline on the same workload.
package main

import (
	"fmt"
	"log"
	"time"

	"topk"
	"topk/internal/dataset"
)

func main() {
	const (
		numQueriesLogged = 20000
		k                = 10
	)
	cfg := dataset.NYTLike(numQueriesLogged, k)
	rankingLog, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated query log: %d result rankings (k=%d)\n", len(rankingLog), k)

	// The coarse index tunes its partitioning threshold with the cost model
	// for the largest similarity threshold the suggestion feature uses.
	start := time.Now()
	coarseIdx, err := topk.NewCoarseIndex(rankingLog, topk.WithAutoTune(0.2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coarse index: θC=%.2f (auto-tuned), %d partitions, built in %v\n",
		coarseIdx.ThetaC(), coarseIdx.NumPartitions(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	baseline, err := topk.NewStaticInvertedIndex(rankingLog, topk.FilterValidate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline F&V index built in %v\n", time.Since(start).Round(time.Millisecond))

	// New queries arrive: result rankings resembling logged ones.
	incoming, err := dataset.Workload(rankingLog, cfg, 200, 0.9, 42)
	if err != nil {
		log.Fatal(err)
	}

	suggest := func(idx topk.Index, name string) {
		start := time.Now()
		found := 0
		for _, q := range incoming {
			res, err := idx.Search(q, 0.15)
			if err != nil {
				log.Fatal(err)
			}
			found += len(res)
		}
		fmt.Printf("%-22s %6v for %d lookups, %5d suggestions, %8d distance calls\n",
			name, time.Since(start).Round(time.Microsecond), len(incoming), found, idx.DistanceCalls())
	}
	fmt.Println("\nsuggesting related historic queries (θ = 0.15):")
	suggest(coarseIdx, "coarse (auto-tuned):")
	suggest(baseline, "plain F&V:")

	// Show one concrete suggestion set.
	q := incoming[0]
	res, _ := coarseIdx.Search(q, 0.15)
	fmt.Printf("\nexample: new result ranking %v\n", q)
	for i, r := range res {
		if i == 5 {
			fmt.Printf("  … %d more\n", len(res)-5)
			break
		}
		fmt.Printf("  suggest logged query #%d (distance %d): %v\n", r.ID, r.Dist, rankingLog[r.ID])
	}
}
