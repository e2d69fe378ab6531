package topk

import (
	"math/rand"
	"testing"

	"topk/internal/adaptsearch"
	"topk/internal/bktree"
	"topk/internal/blocked"
	"topk/internal/coarse"
	"topk/internal/difftest"
	"topk/internal/metric"
	"topk/internal/mtree"
	"topk/internal/ranking"
	"topk/internal/vptree"
)

// TestNilEvaluatorAnswersAlike: every paper baseline's searcher and every
// tree's range walk answers a query the same with a nil evaluator — which
// counts nothing — as with a counting one.
func TestNilEvaluatorAnswersAlike(t *testing.T) {
	rs := difftest.RandomCollection(rand.New(rand.NewSource(3)), 400, 8, 50)
	const k = 8
	co, err := coarse.New(rs, ranking.RawThreshold(0.2, k), coarse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := blocked.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := adaptsearch.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := bktree.New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := mtree.New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vptree.New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, bs, as := coarse.NewSearcher(co), blocked.NewSearcher(bl), adaptsearch.NewSearcher(ad)
	tree := func(walk func(Ranking, int, *metric.Evaluator) []Result) func(Ranking, int, *metric.Evaluator) ([]Result, error) {
		return func(q Ranking, raw int, ev *metric.Evaluator) ([]Result, error) {
			out := walk(q, raw, ev)
			ranking.SortResults(out)
			return out, nil
		}
	}
	searchers := map[string]func(Ranking, int, *metric.Evaluator) ([]Result, error){
		"coarse": func(q Ranking, raw int, ev *metric.Evaluator) ([]Result, error) {
			return cs.Query(q, raw, ev, coarse.FV)
		},
		"coarse-drop": func(q Ranking, raw int, ev *metric.Evaluator) ([]Result, error) {
			return cs.Query(q, raw, ev, coarse.FVDrop)
		},
		"blocked": func(q Ranking, raw int, ev *metric.Evaluator) ([]Result, error) {
			return bs.Query(q, raw, ev, blocked.Prune)
		},
		"blocked-drop": func(q Ranking, raw int, ev *metric.Evaluator) ([]Result, error) {
			return bs.Query(q, raw, ev, blocked.PruneDrop)
		},
		"adaptsearch": as.Query,
		"bktree":      tree(bk.RangeSearch),
		"mtree":       tree(mt.RangeSearch),
		"vptree":      tree(vp.RangeSearch),
	}
	for name, search := range searchers {
		ev := metric.New(nil)
		for i, q := range rs[:30] {
			raw := ranking.RawThreshold([]float64{0.05, 0.2, 0.4}[i%3], k)
			counted, err := search(q, raw, ev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			uncounted, err := search(q, raw, nil)
			if err != nil {
				t.Fatalf("%s with a nil evaluator: %v", name, err)
			}
			if !difftest.Equal(uncounted, counted) {
				t.Fatalf("%s q=%v raw=%d: nil evaluator answers %v, counter %v", name, q, raw, uncounted, counted)
			}
		}
		if ev.Calls() == 0 {
			t.Errorf("%s: the counter saw no distance call; the test needs some", name)
		}
	}
}
