// Package vptree implements the vantage-point tree (Uhlmann 1991;
// Yianilos, SODA 1993), a binary metric-space index built by recursively
// picking a vantage point and splitting the remaining objects at the median
// distance. The paper discusses it among the metric-space alternatives in
// Section 2; this library includes it as a third metric-tree baseline beside
// the BK-tree and the M-tree.
package vptree

import (
	"fmt"
	"sort"

	"topk/internal/metric"
	"topk/internal/ranking"
)

type node struct {
	id    ranking.ID
	mu    int32 // median distance: left subtree holds d ≤ mu, right d > mu
	left  *node
	right *node
	// bucket holds ids for small leaf groups (no further splitting).
	bucket []ranking.ID
}

// Tree is a vantage-point tree over same-size rankings.
type Tree struct {
	root     *node
	rankings []ranking.Ranking
	size     int
	k        int
	leafSize int
}

// DefaultLeafSize stops splitting below this many objects.
const DefaultLeafSize = 8

// Option configures construction.
type Option func(*Tree)

// WithLeafSize sets the bucket size (minimum 1).
func WithLeafSize(n int) Option {
	return func(t *Tree) {
		if n < 1 {
			n = 1
		}
		t.leafSize = n
	}
}

// New builds a VP-tree. The vantage point of each subtree is chosen
// deterministically as the object with the largest spread of distances to a
// small sample, a common variance heuristic.
func New(rankings []ranking.Ranking, ev *metric.Evaluator, opts ...Option) (*Tree, error) {
	t := &Tree{leafSize: DefaultLeafSize, rankings: rankings, size: len(rankings)}
	for _, o := range opts {
		o(t)
	}
	if len(rankings) == 0 {
		return t, nil
	}
	t.k = max(rankings[0].K(), 1) // a ranking holds at least one item
	ids := make([]ranking.ID, len(rankings))
	for i, r := range rankings {
		if err := ranking.Check(r, t.k); err != nil {
			return nil, fmt.Errorf("vptree: ranking %d: %w", i, err)
		}
		ids[i] = ranking.ID(i)
	}
	t.root = t.build(ids, ev)
	return t, nil
}

func (t *Tree) build(ids []ranking.ID, ev *metric.Evaluator) *node {
	if len(ids) == 0 {
		return nil
	}
	if len(ids) <= t.leafSize {
		b := make([]ranking.ID, len(ids))
		copy(b, ids)
		return &node{id: ids[0], bucket: b}
	}
	vpIdx := t.selectVantage(ids, ev)
	ids[0], ids[vpIdx] = ids[vpIdx], ids[0]
	vp := ids[0]
	rest := ids[1:]
	type distID struct {
		d  int32
		id ranking.ID
	}
	ds := make([]distID, len(rest))
	for i, id := range rest {
		ds[i] = distID{int32(ev.Distance(t.rankings[vp], t.rankings[id])), id}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	// Median split; push equal-to-median distances left so left is d ≤ mu.
	mid := len(ds) / 2
	mu := ds[mid].d
	for mid+1 < len(ds) && ds[mid+1].d == mu {
		mid++
	}
	leftIDs := make([]ranking.ID, 0, mid+1)
	rightIDs := make([]ranking.ID, 0, len(ds)-mid-1)
	for i, x := range ds {
		if i <= mid {
			leftIDs = append(leftIDs, x.id)
		} else {
			rightIDs = append(rightIDs, x.id)
		}
	}
	n := &node{id: vp, mu: mu}
	n.left = t.build(leftIDs, ev)
	n.right = t.build(rightIDs, ev)
	return n
}

// selectVantage picks the candidate with the largest distance spread over a
// deterministic sample, which tends to produce better-balanced splits than
// a random pick in clustered data.
func (t *Tree) selectVantage(ids []ranking.ID, ev *metric.Evaluator) int {
	const candidates, sample = 5, 8
	if len(ids) <= candidates {
		return 0
	}
	stepC := len(ids) / candidates
	stepS := len(ids)/sample + 1
	bestIdx, bestSpread := 0, int64(-1)
	for c := 0; c < candidates; c++ {
		ci := c * stepC
		var sum, sumSq int64
		cnt := 0
		for s := 0; s < len(ids); s += stepS {
			if s == ci {
				continue
			}
			d := int64(ev.Distance(t.rankings[ids[ci]], t.rankings[ids[s]]))
			sum += d
			sumSq += d * d
			cnt++
		}
		if cnt == 0 {
			continue
		}
		spread := sumSq*int64(cnt) - sum*sum // ∝ variance
		if spread > bestSpread {
			bestSpread, bestIdx = spread, ci
		}
	}
	return bestIdx
}

// Len returns the number of indexed rankings.
func (t *Tree) Len() int { return t.size }

// K returns the ranking size.
func (t *Tree) K() int { return t.k }

// RangeSearch returns every ranking within radius of q with its exact
// distance, in unspecified order.
func (t *Tree) RangeSearch(q ranking.Ranking, radius int, ev *metric.Evaluator) []ranking.Result {
	var out []ranking.Result
	if t.root == nil || radius < 0 {
		return out
	}
	t.search(t.root, q, int32(radius), ev, &out)
	return out
}

func (t *Tree) search(n *node, q ranking.Ranking, radius int32, ev *metric.Evaluator, out *[]ranking.Result) {
	if n.bucket != nil {
		for _, id := range n.bucket {
			if d := ev.Distance(q, t.rankings[id]); d <= int(radius) {
				*out = append(*out, ranking.Result{ID: id, Dist: d})
			}
		}
		return
	}
	d := int32(ev.Distance(q, t.rankings[n.id]))
	if d <= radius {
		*out = append(*out, ranking.Result{ID: n.id, Dist: int(d)})
	}
	// Triangle pruning: left holds d(vp,·) ≤ mu, right holds > mu.
	if n.left != nil && d-radius <= n.mu {
		t.search(n.left, q, radius, ev, out)
	}
	if n.right != nil && d+radius > n.mu {
		t.search(n.right, q, radius, ev, out)
	}
}
