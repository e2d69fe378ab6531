package metric

import (
	"testing"

	"topk/internal/ranking"
)

func TestEvaluatorCounts(t *testing.T) {
	ev := New(nil)
	a := ranking.Ranking{1, 2, 3}
	b := ranking.Ranking{3, 2, 1}
	if got := ev.Distance(a, b); got != ranking.Footrule(a, b) {
		t.Fatalf("Distance = %d", got)
	}
	ev.Distance(a, a)
	if ev.Calls() != 2 {
		t.Fatalf("Calls = %d, want 2", ev.Calls())
	}
	ev.Add(5)
	if ev.Calls() != 7 {
		t.Fatalf("Calls after Add = %d, want 7", ev.Calls())
	}
	ev.Reset()
	if ev.Calls() != 0 {
		t.Fatalf("Calls after Reset = %d", ev.Calls())
	}
}

func TestEvaluatorCustomFunc(t *testing.T) {
	calls := 0
	ev := New(func(a, b ranking.Ranking) int {
		calls++
		return 42
	})
	if got := ev.Distance(ranking.Ranking{1}, ranking.Ranking{2}); got != 42 {
		t.Fatalf("custom distance = %d", got)
	}
	if calls != 1 || ev.Calls() != 1 {
		t.Fatal("custom function not counted")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var ev Evaluator
	if got := ev.Distance(ranking.Ranking{1, 2}, ranking.Ranking{2, 1}); got != 2 {
		t.Fatalf("zero-value evaluator distance = %d", got)
	}
	if ev.Calls() != 1 {
		t.Fatal("zero-value evaluator not counting")
	}
}

// TestNilEvaluator: a nil evaluator computes Footrule and counts nothing.
func TestNilEvaluator(t *testing.T) {
	var ev *Evaluator
	a, b := ranking.Ranking{1, 2, 3}, ranking.Ranking{3, 2, 7}
	if got, want := ev.Distance(a, b), ranking.Footrule(a, b); got != want {
		t.Fatalf("nil Distance = %d, want Footrule %d", got, want)
	}
	ev.Add(5)
	if ev.Calls() != 0 {
		t.Fatalf("nil Calls = %d, want 0", ev.Calls())
	}
}
