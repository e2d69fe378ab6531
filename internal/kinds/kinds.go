// Package kinds is the one table of named index kinds the command-line tools
// build: topkquery -index resolves a name here, and topkserve -kind and the
// "kind" of PUT /collections/{name} resolve the mutable ones.
package kinds

import (
	"fmt"
	"strings"

	"topk"
	"topk/internal/ranking"
)

// Options carries what a caller can configure about a kind.
type Options struct {
	// MaxTheta is the largest query threshold the coarse kind auto-tunes its
	// partitioning threshold for (topkquery -maxtheta); the other kinds
	// ignore it.
	MaxTheta float64
	// CompactionRatio is the tombstone fraction of a mutable kind's id space
	// above which a delete or update compacts it (topkserve -delta-ratio);
	// ≤ 0 disables compaction. The read-only kinds ignore it.
	CompactionRatio float64
}

// Index is the query shape every kind has: the traced range search topkquery
// answers with, the live ranking count and the ranking size. The mutable kinds'
// indices additionally satisfy shard.Index, which topkserve's shard builder
// checks once, when it builds a shard.
type Index interface {
	SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, string, uint64, error)
	Len() int
	K() int
}

// Kind is one named index kind.
type Kind struct {
	Name string
	// Mutable kinds support Insert/Delete/Update and are exactly the kinds
	// topkserve serves. Only they can represent retired (tombstoned) ids: New
	// takes an external-id slot array with nil for a retired id. The other
	// kinds — the paper baselines — need a dense collection.
	Mutable bool
	New     func(slots []ranking.Ranking, o Options) (Index, error)
}

// Table lists every kind, the mutable ones first.
var Table = []Kind{
	{"hybrid", true, func(rs []ranking.Ranking, o Options) (Index, error) {
		return topk.NewHybridIndexFromSlots(rs, topk.WithHybridDeltaRatio(o.CompactionRatio))
	}},
	{"inverted", true, func(rs []ranking.Ranking, o Options) (Index, error) {
		return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.FilterValidate), topk.WithCompactionRatio(o.CompactionRatio))
	}},
	{"inverted-drop", true, func(rs []ranking.Ranking, o Options) (Index, error) {
		return topk.NewInvertedIndexFromSlots(rs, topk.WithCompactionRatio(o.CompactionRatio))
	}},
	{"merge", true, func(rs []ranking.Ranking, o Options) (Index, error) {
		return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.ListMerge), topk.WithCompactionRatio(o.CompactionRatio))
	}},
	{"coarse", false, func(rs []ranking.Ranking, o Options) (Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithAutoTune(o.MaxTheta))
	}},
	{"coarse-drop", false, func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithThetaC(0.06), topk.WithListDropping())
	}},
	{"blocked", false, func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewBlockedIndex(rs)
	}},
	{"blocked-drop", false, func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewBlockedIndex(rs, topk.WithBlockedDrop())
	}},
	{"bktree", false, func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewMetricTree(rs, topk.BKTree)
	}},
	{"mtree", false, func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewMetricTree(rs, topk.MTree)
	}},
	{"vptree", false, func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewMetricTree(rs, topk.VPTree)
	}},
}

// Lookup resolves a kind name among the kinds keep accepts (nil accepts all).
func Lookup(name string, keep func(Kind) bool) (Kind, error) {
	for _, k := range Table {
		if k.Name == name && (keep == nil || keep(k)) {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("unknown index kind %q", name)
}

// Names joins the names of the kinds keep accepts (nil accepts all) with "|",
// in table order — the spelling of flag help and error texts.
func Names(keep func(Kind) bool) string {
	var names []string
	for _, k := range Table {
		if keep == nil || keep(k) {
			names = append(names, k.Name)
		}
	}
	return strings.Join(names, "|")
}
