// Package mtree implements the M-tree of Ciaccia, Patella and Zezula
// (VLDB 1997), the balanced, paged metric access method the paper uses as
// the second metric-space competitor in Figure 5. Objects live in leaves;
// internal entries carry a routing object, a covering radius and the
// distance to their parent's routing object, enabling two classic prunings
// during range search:
//
//  1. |d(q, parent) − d(parent, entry)| − r(entry) > radius  ⇒ skip without
//     computing d(q, entry)       (distance-to-parent pruning), and
//  2. d(q, entry) − r(entry) > radius                        ⇒ skip subtree.
//
// Splits promote two routing objects with the mM_RAD strategy (minimize the
// maximum of the two covering radii) over a bounded candidate sample and
// partition by generalized hyperplane, as in the original paper.
package mtree

import (
	"fmt"

	"topk/internal/metric"
	"topk/internal/ranking"
)

// DefaultCapacity is the default maximum number of entries per node. The
// original evaluation uses page-sized nodes; for an in-memory index a
// moderate fanout performs best.
const DefaultCapacity = 16

// entry is a node slot. In leaves, child is nil and radius is 0; in internal
// nodes, obj is the routing object and radius its covering radius.
type entry struct {
	id      ranking.ID // object id (leaf) or routing object id (internal)
	distPar int32      // distance to the parent node's routing object
	radius  int32      // covering radius (internal entries only)
	child   *node
}

type node struct {
	leaf    bool
	entries []entry
	parent  *node
	// parentEntry indexes the entry in parent that points to this node.
	parentEntry int
}

// Tree is an M-tree over a collection of same-size rankings.
type Tree struct {
	root     *node
	rankings []ranking.Ranking
	size     int
	k        int
	capacity int
}

// Option configures tree construction.
type Option func(*Tree)

// WithCapacity sets the node capacity (minimum 4).
func WithCapacity(c int) Option {
	return func(t *Tree) {
		if c < 4 {
			c = 4
		}
		t.capacity = c
	}
}

// New bulk-inserts the rankings into a fresh M-tree.
func New(rankings []ranking.Ranking, ev *metric.Evaluator, opts ...Option) (*Tree, error) {
	t := &Tree{capacity: DefaultCapacity, rankings: rankings}
	for _, o := range opts {
		o(t)
	}
	if len(rankings) == 0 {
		return t, nil
	}
	t.k = max(rankings[0].K(), 1) // a ranking holds at least one item
	t.root = &node{leaf: true}
	for id, r := range rankings {
		if err := ranking.Check(r, t.k); err != nil {
			return nil, fmt.Errorf("mtree: ranking %d: %w", id, err)
		}
		t.insert(ranking.ID(id), ev)
	}
	return t, nil
}

// Len returns the number of indexed rankings.
func (t *Tree) Len() int { return t.size }

// K returns the ranking size.
func (t *Tree) K() int { return t.k }

func (t *Tree) insert(id ranking.ID, ev *metric.Evaluator) {
	t.size++
	obj := t.rankings[id]
	n := t.root
	var distToParent int32
	for !n.leaf {
		// Choose the child whose routing object is closest among those whose
		// covering radius already contains the object; otherwise the child
		// needing the least radius enlargement (classic M-tree heuristic).
		best, bestDist, bestEnlarge := -1, int32(0), int32(1<<30)
		bestCovered := false
		for i := range n.entries {
			e := &n.entries[i]
			d := int32(ev.Distance(obj, t.rankings[e.id]))
			covered := d <= e.radius
			switch {
			case covered && (!bestCovered || d < bestDist):
				best, bestDist, bestCovered = i, d, true
			case !covered && !bestCovered:
				if enl := d - e.radius; enl < bestEnlarge {
					best, bestDist, bestEnlarge = i, d, enl
				}
			}
		}
		e := &n.entries[best]
		if bestDist > e.radius {
			e.radius = bestDist // enlarge covering radius
		}
		distToParent = bestDist
		n = e.child
	}
	n.entries = append(n.entries, entry{id: id, distPar: distToParent})
	if len(n.entries) > t.capacity {
		t.split(n, ev)
	}
}

// split overflows node n into two nodes, promoting two routing objects and
// partitioning entries by generalized hyperplane.
func (t *Tree) split(n *node, ev *metric.Evaluator) {
	// mM_RAD promotion over a candidate sample: try a bounded number of
	// pairs, keep the pair minimizing the larger covering radius.
	m := len(n.entries)
	type cand struct{ a, b int }
	var cands []cand
	const maxPairs = 48
	if m*(m-1)/2 <= maxPairs {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				cands = append(cands, cand{i, j})
			}
		}
	} else {
		// Deterministic sample: stride through the pair space.
		step := m*(m-1)/2/maxPairs + 1
		idx := 0
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if idx%step == 0 {
					cands = append(cands, cand{i, j})
				}
				idx++
			}
		}
	}
	// Pairwise distances from each candidate routing object to all entries.
	distTo := func(i int) []int32 {
		ds := make([]int32, m)
		for j := range n.entries {
			ds[j] = int32(ev.Distance(t.rankings[n.entries[i].id], t.rankings[n.entries[j].id]))
		}
		return ds
	}
	distCache := make(map[int][]int32)
	rowsOf := func(i int) []int32 {
		if r, ok := distCache[i]; ok {
			return r
		}
		r := distTo(i)
		distCache[i] = r
		return r
	}
	bestA, bestB := 0, 1
	bestCost := int32(1 << 30)
	for _, c := range cands {
		da, db := rowsOf(c.a), rowsOf(c.b)
		var ra, rb int32
		for j := 0; j < m; j++ {
			if da[j] <= db[j] {
				if da[j] > ra {
					ra = da[j]
				}
			} else if db[j] > rb {
				rb = db[j]
			}
		}
		cost := ra
		if rb > cost {
			cost = rb
		}
		if cost < bestCost {
			bestCost, bestA, bestB = cost, c.a, c.b
		}
	}
	da, db := rowsOf(bestA), rowsOf(bestB)
	left := &node{leaf: n.leaf}
	right := &node{leaf: n.leaf}
	var ra, rb int32
	// Ties alternate sides: with duplicate-heavy collections the two
	// routing objects can be identical rankings, making every comparison a
	// tie — strict "≤ goes left" would then produce an empty right node.
	tieToLeft := true
	for j := 0; j < m; j++ {
		e := n.entries[j]
		goLeft := da[j] < db[j]
		if da[j] == db[j] {
			goLeft = tieToLeft
			tieToLeft = !tieToLeft
		}
		if goLeft {
			e.distPar = da[j]
			left.entries = append(left.entries, e)
			if r := da[j] + e.radius; r > ra {
				ra = r
			}
		} else {
			e.distPar = db[j]
			right.entries = append(right.entries, e)
			if r := db[j] + e.radius; r > rb {
				rb = r
			}
		}
	}
	for i := range left.entries {
		if c := left.entries[i].child; c != nil {
			c.parent, c.parentEntry = left, i
		}
	}
	for i := range right.entries {
		if c := right.entries[i].child; c != nil {
			c.parent, c.parentEntry = right, i
		}
	}
	idA := n.entries[bestA].id
	idB := n.entries[bestB].id

	if n.parent == nil {
		// Grow a new root.
		root := &node{leaf: false}
		root.entries = []entry{
			{id: idA, radius: ra, child: left},
			{id: idB, radius: rb, child: right},
		}
		left.parent, left.parentEntry = root, 0
		right.parent, right.parentEntry = root, 1
		t.root = root
		return
	}
	parent := n.parent
	pe := parent.entries[n.parentEntry]
	// Replace the parent entry for n with the entry for left, append right.
	dParA := int32(ev.Distance(t.rankings[idA], t.rankings[parentRouting(parent, pe)]))
	dParB := int32(ev.Distance(t.rankings[idB], t.rankings[parentRouting(parent, pe)]))
	parent.entries[n.parentEntry] = entry{id: idA, distPar: dParA, radius: ra, child: left}
	left.parent, left.parentEntry = parent, n.parentEntry
	parent.entries = append(parent.entries, entry{id: idB, distPar: dParB, radius: rb, child: right})
	right.parent, right.parentEntry = parent, len(parent.entries)-1
	// distPar of split entries is relative to the grandparent routing object
	// only when parent is not the root; recompute lazily is complex, so we
	// recompute both against the actual parent routing object, which is what
	// parentRouting returned. (For the root, distPar is unused.)
	if len(parent.entries) > t.capacity {
		t.split(parent, ev)
	}
}

// parentRouting returns the routing object id that governs node entries'
// distPar values: the routing object of the entry in the grandparent that
// points to parent; for the root there is none and distances to parent are
// unused, so any stable id works — we use the first entry's own id.
func parentRouting(parent *node, selfEntry entry) ranking.ID {
	if parent.parent == nil {
		return selfEntry.id
	}
	return parent.parent.entries[parent.parentEntry].id
}

// RangeSearch returns every indexed ranking within radius of q with its exact
// distance, in unspecified order.
func (t *Tree) RangeSearch(q ranking.Ranking, radius int, ev *metric.Evaluator) []ranking.Result {
	var out []ranking.Result
	if t.root == nil || radius < 0 {
		return out
	}
	t.search(t.root, q, int32(radius), -1, ev, &out)
	return out
}

// search descends with dQParent = d(q, routing object of n's parent entry),
// or -1 at the root where no parent distance is available.
func (t *Tree) search(n *node, q ranking.Ranking, radius, dQParent int32, ev *metric.Evaluator, out *[]ranking.Result) {
	for i := range n.entries {
		e := &n.entries[i]
		// Pruning 1: triangle inequality via the precomputed parent distance
		// avoids computing d(q, e) at all.
		if dQParent >= 0 {
			diff := dQParent - e.distPar
			if diff < 0 {
				diff = -diff
			}
			if diff > radius+e.radius {
				continue
			}
		}
		d := int32(ev.Distance(q, t.rankings[e.id]))
		if n.leaf {
			if d <= radius {
				*out = append(*out, ranking.Result{ID: e.id, Dist: int(d)})
			}
			continue
		}
		// Pruning 2: subtree ball does not intersect the query ball.
		if d > radius+e.radius {
			continue
		}
		t.search(e.child, q, radius, d, ev, out)
	}
}

// Stats describes the tree shape.
type Stats struct {
	Height    int
	Nodes     int
	Leaves    int
	Entries   int
	AvgFill   float64
	MaxRadius int
}

// Stats computes shape statistics.
func (t *Tree) Stats() Stats {
	var s Stats
	if t.root == nil {
		return s
	}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Nodes++
		s.Entries += len(n.entries)
		if depth+1 > s.Height {
			s.Height = depth + 1
		}
		if n.leaf {
			s.Leaves++
			return
		}
		for i := range n.entries {
			if r := int(n.entries[i].radius); r > s.MaxRadius {
				s.MaxRadius = r
			}
			walk(n.entries[i].child, depth+1)
		}
	}
	walk(t.root, 0)
	s.AvgFill = float64(s.Entries) / float64(s.Nodes)
	return s
}

// CheckInvariants validates covering radii and leaf depth uniformity;
// used by tests. It returns an error describing the first violation.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	leafDepth := -1
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("mtree: leaves at depths %d and %d", leafDepth, depth)
			}
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.child == nil {
				return fmt.Errorf("mtree: internal entry %d without child", e.id)
			}
			// Covering radius must bound every object in the subtree.
			routing := t.rankings[e.id]
			var verify func(m *node) error
			verify = func(m *node) error {
				for j := range m.entries {
					f := &m.entries[j]
					if m.leaf {
						if d := ranking.Footrule(routing, t.rankings[f.id]); int32(d) > e.radius {
							return fmt.Errorf("mtree: object %d at %d outside radius %d of routing %d",
								f.id, d, e.radius, e.id)
						}
						continue
					}
					if err := verify(f.child); err != nil {
						return err
					}
				}
				return nil
			}
			if err := verify(e.child); err != nil {
				return err
			}
			if err := walk(e.child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0)
}
