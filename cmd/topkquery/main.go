// Command topkquery builds an index over a ranking collection and answers
// similarity queries, either from flags or interactively from stdin.
//
// Usage:
//
//	topkquery -data rankings.txt -index coarse -q "[3, 1, 4, 1, 5]" -theta 0.2
//	topkgen -preset nyt -n 5000 | topkquery -data - -index coarse -interactive
//	topkquery -data rankings.txt -save-snapshot rankings.v3
//	topkquery -load-snapshot rankings.v3 -index blocked -q "[1, 2, 3]"
//	topkquery -load-snapshot old.bin -save-snapshot new.v3    # migrate v1/v2
//
// The -index flag selects the structure: coarse (default, auto-tuned),
// coarse-drop, inverted, inverted-drop, merge, blocked, blocked-drop,
// bktree, mtree, vptree.
//
// -save-snapshot writes the loaded collection as a paged v3 snapshot of
// internal/persist — the one format topkserve -load-snapshot reads and
// topkgen -format binary and GET /snapshot write; -load-snapshot starts from
// such a snapshot instead of parsing text, skipping the parse cost on repeat
// runs. -load-snapshot also decodes the two formats older versions wrote
// (dense v1, slotted v2) and -save-snapshot keeps every id — tombstoned slots
// included — so the two flags together are the offline migration to v3.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"topk"
	"topk/internal/kinds"
	"topk/internal/persist"
	"topk/internal/ranking"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "collection path (- = stdin), one ranking per line, e.g. [1, 2, 3]")
		indexKind   = flag.String("index", "coarse", kinds.Names())
		query       = flag.String("q", "", "query ranking, e.g. \"[3, 1, 4]\"")
		theta       = flag.Float64("theta", 0.2, "normalized distance threshold in [0,1]")
		interactive = flag.Bool("interactive", false, "read queries from stdin after loading")
		maxTheta    = flag.Float64("maxtheta", 0.3, "auto-tune target threshold for the coarse index")
		saveSnap    = flag.String("save-snapshot", "", "write the loaded collection as a paged v3 snapshot to this path, ids and tombstones preserved")
		loadSnap    = flag.String("load-snapshot", "", "load the collection from a snapshot (v3, or legacy v1/v2) instead of -data")
	)
	flag.Parse()

	if *dataPath == "" && *loadSnap == "" {
		fmt.Fprintln(os.Stderr, "missing -data or -load-snapshot")
		os.Exit(2)
	}
	if *dataPath != "" && *loadSnap != "" {
		fmt.Fprintln(os.Stderr, "pass either -data or -load-snapshot, not both")
		os.Exit(2)
	}
	// slots is the external-id slot array: nil entries are tombstoned ids.
	var slots []topk.Ranking
	var err error
	if *loadSnap != "" {
		slots, err = loadSnapshot(*loadSnap)
	} else {
		slots, err = ranking.ReadTextFile(*dataPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *saveSnap != "" {
		if err := persist.WritePagedFile(*saveSnap, slots); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "snapshot of %d slots written to %s\n", len(slots), *saveSnap)
		if *query == "" && !*interactive {
			return
		}
	}
	// topkquery builds static, densely-numbered indexes, so tombstoned
	// snapshot slots are compacted away with a notice.
	rankings := make([]topk.Ranking, 0, len(slots))
	for _, r := range slots {
		if r != nil {
			rankings = append(rankings, r)
		}
	}
	if dropped := len(slots) - len(rankings); dropped > 0 {
		fmt.Fprintf(os.Stderr, "compacted %d tombstoned snapshot slots (ids renumbered)\n", dropped)
	}
	start := time.Now()
	idx, err := buildIndex(*indexKind, rankings, *maxTheta)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "indexed %d rankings (k=%d) with %s in %v\n",
		idx.Len(), idx.K(), *indexKind, time.Since(start).Round(time.Millisecond))

	answer := func(qs string) {
		q, err := topk.ParseRanking(qs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad query: %v\n", err)
			return
		}
		start := time.Now()
		res, err := idx.Search(q, *theta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
			return
		}
		elapsed := time.Since(start)
		fmt.Printf("%d results in %v (θ=%.2f)\n", len(res), elapsed.Round(time.Microsecond), *theta)
		for i, r := range res {
			if i >= 20 {
				fmt.Printf("  … %d more\n", len(res)-20)
				break
			}
			fmt.Printf("  #%d  d=%d (%.3f)  %s\n", r.ID, r.Dist,
				float64(r.Dist)/float64(topk.MaxDistance(idx.K())), rankings[r.ID])
		}
	}

	if *query != "" {
		answer(*query)
	}
	if *interactive {
		fmt.Fprintln(os.Stderr, "enter one query ranking per line (ctrl-D to quit):")
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			answer(line)
		}
	}
	if *query == "" && !*interactive {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -q or -interactive")
		os.Exit(2)
	}
}

// loadSnapshot reads a collection snapshot as its slot array: a paged v3
// file, or — the one place that still decodes them — a legacy v1/v2 file.
func loadSnapshot(path string) ([]topk.Ranking, error) {
	pc, err := persist.OpenPagedFile(path)
	if err == nil {
		return pc.Slots(), nil
	}
	if !errors.Is(err, persist.ErrLegacyFormat) {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return persist.ReadLegacy(f)
}

func buildIndex(kind string, rankings []topk.Ranking, maxTheta float64) (kinds.Index, error) {
	k, err := kinds.Lookup(kind)
	if err != nil {
		return nil, err
	}
	return k.New(rankings, kinds.Options{MaxTheta: maxTheta})
}
