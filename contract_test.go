package topk

import (
	"errors"
	"strings"
	"testing"

	"topk/internal/adaptsearch"
	"topk/internal/bktree"
	"topk/internal/invindex"
	"topk/internal/mtree"
	"topk/internal/ranking"
	"topk/internal/vptree"
)

// TestConstructorsCheckEveryRanking: every constructor checks each ranking
// of its collection with ranking.Check against the first one's size and
// names the offending ranking's position — a ranking of another size is
// ErrSizeMismatch, one with a repeated item ErrDuplicateItem, the metric
// trees' included.
func TestConstructorsCheckEveryRanking(t *testing.T) {
	all := func(rs []Ranking) []ID {
		ids := make([]ID, len(rs))
		for i := range ids {
			ids[i] = ID(i)
		}
		return ids
	}
	ctors := []struct {
		name  string
		build func([]Ranking) error
	}{
		{"invindex.New", func(rs []Ranking) error { _, err := invindex.New(rs); return err }},
		{"invindex.NewMutable", func(rs []Ranking) error {
			_, err := invindex.NewMutable(rs, 0, invindex.FilterValidateDrop, 0)
			return err
		}},
		{"adaptsearch.New", func(rs []Ranking) error { _, err := adaptsearch.New(rs); return err }},
		{"bktree.New", func(rs []Ranking) error { _, err := bktree.New(rs, nil); return err }},
		{"bktree.NewSubset", func(rs []Ranking) error { _, err := bktree.NewSubset(rs, all(rs), nil); return err }},
		{"mtree.New", func(rs []Ranking) error { _, err := mtree.New(rs, nil); return err }},
		{"vptree.New", func(rs []Ranking) error { _, err := vptree.New(rs, nil); return err }},
		{"NewCoarseIndex", func(rs []Ranking) error { _, err := NewCoarseIndex(rs); return err }},
		{"NewBlockedIndex", func(rs []Ranking) error { _, err := NewBlockedIndex(rs); return err }},
		{"NewMetricTree", func(rs []Ranking) error { _, err := NewMetricTree(rs, BKTree); return err }},
	}
	cases := []struct {
		name string
		rs   []Ranking
		want error
		pos  string
	}{
		{"valid", []Ranking{{1, 2, 3}, {3, 2, 1}, {4, 5, 6}}, nil, ""},
		{"size mismatch", []Ranking{{1, 2, 3}, {3, 2, 1}, {4, 5}}, ranking.ErrSizeMismatch, " 2:"},
		{"repeated item", []Ranking{{1, 2, 3}, {4, 4, 5}, {6, 7, 8}}, ranking.ErrDuplicateItem, " 1:"},
		{"empty first ranking", []Ranking{{}, {1, 2, 3}}, ranking.ErrSizeMismatch, " 0:"},
	}
	for _, c := range ctors {
		for _, tc := range cases {
			err := c.build(tc.rs)
			if !errors.Is(err, tc.want) || tc.want != nil && !strings.Contains(err.Error(), tc.pos) {
				t.Errorf("%s, %s: %v, want %v naming position%s", c.name, tc.name, err, tc.want, tc.pos)
			}
		}
	}
}
