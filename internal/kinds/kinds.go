// Package kinds is the table of named index kinds topkquery -index builds:
// the served inverted index (inverted-drop) and the paper baselines, F&V
// (inverted) and ListMerge (merge) among them. (topkserve serves the inverted
// index directly; its -kind names are internal/server's.)
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
}

// Index is the query shape every kind has: the range search topkquery
// answers with, the live ranking count and the ranking size.
type Index interface {
	Search(q ranking.Ranking, theta float64) ([]ranking.Result, error)
	Len() int
	K() int
}

// Kind is one named index kind. New builds it over a dense collection.
type Kind struct {
	Name string
	New  func(rs []ranking.Ranking, o Options) (Index, error)
}

// Table lists every kind.
var Table = []Kind{
	{"inverted", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewStaticInvertedIndex(rs, topk.FilterValidate)
	}},
	{"inverted-drop", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewInvertedIndex(rs)
	}},
	{"merge", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewStaticInvertedIndex(rs, topk.ListMerge)
	}},
	{"coarse", func(rs []ranking.Ranking, o Options) (Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithAutoTune(o.MaxTheta))
	}},
	{"coarse-drop", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewCoarseIndex(rs, topk.WithThetaC(0.06), topk.WithListDropping())
	}},
	{"blocked", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewBlockedIndex(rs)
	}},
	{"blocked-drop", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewBlockedIndex(rs, topk.WithBlockedDrop())
	}},
	{"bktree", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewMetricTree(rs, topk.BKTree)
	}},
	{"mtree", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewMetricTree(rs, topk.MTree)
	}},
	{"vptree", func(rs []ranking.Ranking, _ Options) (Index, error) {
		return topk.NewMetricTree(rs, topk.VPTree)
	}},
}

// Lookup resolves a kind name.
func Lookup(name string) (Kind, error) {
	for _, k := range Table {
		if k.Name == name {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("unknown index kind %q", name)
}

// Names joins the kind names with "|", in table order — the spelling of flag
// help and error texts.
func Names() string {
	names := make([]string, len(Table))
	for i, k := range Table {
		names[i] = k.Name
	}
	return strings.Join(names, "|")
}
