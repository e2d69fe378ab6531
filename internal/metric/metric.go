// Package metric provides the distance-evaluation plumbing shared by all
// index structures: a counting evaluator that both computes the (raw,
// integer) Spearman's Footrule distance and tallies the number of distance
// function calls (DFC), the headline cost measure of the paper's Figure 10.
//
// A nil *Evaluator is a valid evaluator that counts nothing: Distance
// computes Footrule, Add does nothing and Calls is 0. Every structure takes
// one where a caller has no DFC to report, without a guard of its own.
package metric

import "topk/internal/ranking"

// DistFunc computes a raw integer distance between two same-size rankings.
type DistFunc func(a, b ranking.Ranking) int

// Evaluator computes distances while counting calls. The zero value uses
// Spearman's Footrule. Only the metric trees (BK-, M-, VP-tree) evaluate
// through Distance; the inverted-index family is Footrule-only by
// construction, validates through internal/kernel and uses the evaluator as
// a DFC counter (Add). Evaluator is not safe for concurrent use; query
// processing in this library is single-threaded per evaluator, matching the
// paper's sequential measurements (run one evaluator per goroutine).
type Evaluator struct {
	fn    DistFunc
	calls uint64
}

// New returns an evaluator for fn. A nil fn selects ranking.Footrule.
func New(fn DistFunc) *Evaluator {
	if fn == nil {
		fn = ranking.Footrule
	}
	return &Evaluator{fn: fn}
}

// Distance computes the distance between a and b and counts one call.
func (e *Evaluator) Distance(a, b ranking.Ranking) int {
	if e == nil {
		return ranking.Footrule(a, b)
	}
	e.calls++
	if e.fn == nil {
		e.fn = ranking.Footrule
	}
	return e.fn(a, b)
}

// Calls returns the number of distance computations performed so far.
func (e *Evaluator) Calls() uint64 {
	if e == nil {
		return 0
	}
	return e.calls
}

// Reset zeroes the call counter.
func (e *Evaluator) Reset() { e.calls = 0 }

// Add accounts for n distance computations performed outside the evaluator
// (the compiled kernel's evaluations, or distances folded into a merge loop
// that never materializes the ranking pair). It keeps Figure 10's DFC
// numbers honest for algorithms that do not call Distance.
func (e *Evaluator) Add(n uint64) {
	if e != nil {
		e.calls += n
	}
}
