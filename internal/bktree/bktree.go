// Package bktree implements the Burkhard–Keller tree (CACM 1973), an n-ary
// search tree for discrete metrics. It is the metric index the paper uses
// both as a standalone competitor (Figures 5 and 6) and as the partition
// representation inside the coarse index (Section 4.1): every subtree whose
// edge distance to its parent is at most the partitioning threshold θC forms
// a partition, rooted at its medoid, and the subtree itself answers the
// final θ-range queries on the partition without exhaustive evaluation.
//
// BK-tree invariant: the children of a node are keyed by their exact
// distance to that node, and every node of the subtree hanging off edge e
// has distance exactly e to the subtree's grandparent node — insertion
// routes each new object along edges labeled with its measured distances.
// Consequently {root} ∪ subtrees(edge ≤ θC) is exactly the set of indexed
// rankings within θC of the root, which is what makes the partition
// extraction of the coarse index correct.
//
// A range query over the whole tree (RangeSearch) and one over a partition
// (SearchPartition) are the same walk from a different root, and it returns
// every hit with the distance it computed, so no caller re-evaluates one.
package bktree

import (
	"fmt"
	"sort"

	"topk/internal/metric"
	"topk/internal/ranking"
)

// Node is a BK-tree node. Its fields are exported for the walks outside this
// package: the coarse index roots partitions at nodes of its trees, and
// knn.BestFirst descends children best-first.
type Node struct {
	ID       ranking.ID // position of the ranking in the indexed collection
	Children []Edge     // sorted by Dist ascending
}

// Edge connects a node to the subtree of objects at exactly Dist from it.
type Edge struct {
	Dist  int32
	Child *Node
}

// Tree is a BK-tree over a collection of same-size rankings. The tree does
// not copy rankings; it references them by position in the backing slice.
type Tree struct {
	Root     *Node
	rankings []ranking.Ranking
	size     int
	k        int
}

// New builds a BK-tree over the given rankings using ev for distance
// computations (nil means a fresh Footrule evaluator). Construction needs
// O(n · depth) distance computations; the paper's Table 6 reports this as
// the most expensive part of coarse index construction.
func New(rankings []ranking.Ranking, ev *metric.Evaluator) (*Tree, error) {
	ids := make([]ranking.ID, len(rankings))
	for i := range ids {
		ids[i] = ranking.ID(i)
	}
	return NewSubset(rankings, ids, ev)
}

// NewSubset builds a BK-tree over the subset of the collection given by
// ids, inserted in order (so ids[0] becomes the root). Node IDs refer to
// positions in the full collection, which lets partitions produced by other
// clustering strategies (e.g. the random-medoid scheme of Chávez and
// Navarro used in the coarse-index ablation) share the same storage and
// query path as the paper's BK-subtree partitions.
func NewSubset(all []ranking.Ranking, ids []ranking.ID, ev *metric.Evaluator) (*Tree, error) {
	t := &Tree{rankings: all}
	if len(ids) == 0 {
		return t, nil
	}
	t.k = max(all[ids[0]].K(), 1) // a ranking holds at least one item
	for _, id := range ids {
		if err := ranking.Check(all[id], t.k); err != nil {
			return nil, fmt.Errorf("bktree: ranking %d: %w", id, err)
		}
		t.insert(id, ev)
	}
	return t, nil
}

// insert adds the ranking with the given id below the root, creating the
// root when the tree is empty.
func (t *Tree) insert(id ranking.ID, ev *metric.Evaluator) {
	t.size++
	if t.Root == nil {
		t.Root = &Node{ID: id}
		return
	}
	cur := t.Root
	obj := t.rankings[id]
	for {
		d := int32(ev.Distance(obj, t.rankings[cur.ID]))
		if child := cur.childAt(d); child != nil {
			cur = child
			continue
		}
		cur.addChild(d, &Node{ID: id})
		return
	}
}

// childAt returns the child at exactly distance d, or nil.
func (n *Node) childAt(d int32) *Node {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Dist >= d })
	if i < len(n.Children) && n.Children[i].Dist == d {
		return n.Children[i].Child
	}
	return nil
}

// addChild inserts a new edge keeping Children sorted by distance.
func (n *Node) addChild(d int32, c *Node) {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Dist >= d })
	n.Children = append(n.Children, Edge{})
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = Edge{Dist: d, Child: c}
}

// Len returns the number of indexed rankings.
func (t *Tree) Len() int { return t.size }

// K returns the ranking size, or 0 for an empty tree.
func (t *Tree) K() int { return t.k }

// Ranking returns the indexed ranking with the given id.
func (t *Tree) Ranking(id ranking.ID) ranking.Ranking { return t.rankings[id] }

// RangeSearch returns every indexed ranking within raw distance radius of q
// (inclusive) with its exact distance, in unspecified order. The classic
// BK-tree pruning applies: at a node with distance d to the query only child
// edges in [d−radius, d+radius] can contain results, by the triangle
// inequality.
func (t *Tree) RangeSearch(q ranking.Ranking, radius int, ev *metric.Evaluator) []ranking.Result {
	return t.search(t.Root, q, radius, ev)
}

// SearchPartition is RangeSearch restricted to a partition extracted by
// Partitions, using the owning tree's ranking storage: the validation phase
// of the coarse index.
func (t *Tree) SearchPartition(p Partition, q ranking.Ranking, radius int, ev *metric.Evaluator) []ranking.Result {
	return t.search(p.Root, q, radius, ev)
}

func (t *Tree) search(root *Node, q ranking.Ranking, radius int, ev *metric.Evaluator) []ranking.Result {
	var out []ranking.Result
	if root == nil || radius < 0 {
		return out
	}
	t.walk(root, q, int32(radius), ev, &out, int32(ev.Distance(q, t.rankings[root.ID])))
	return out
}

// walk continues a search at n whose distance d to the query is already
// known. Children over a distance-0 edge are duplicates of n in metric
// terms — d(q, child) = d(q, n) by the triangle inequality — so they inherit
// d without a distance computation. This realizes the paper's observation
// that exact-duplicate rankings in a partition are not re-validated (their
// DFC can even undercut the result size, Figure 10).
func (t *Tree) walk(n *Node, q ranking.Ranking, radius int32, ev *metric.Evaluator, out *[]ranking.Result, d int32) {
	if d <= radius {
		*out = append(*out, ranking.Result{ID: n.ID, Dist: int(d)})
	}
	lo, hi := d-radius, d+radius
	// Children are sorted by distance: binary search the admissible window.
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Dist >= lo })
	for ; i < len(n.Children) && n.Children[i].Dist <= hi; i++ {
		c := n.Children[i]
		cd := d
		if c.Dist != 0 {
			cd = int32(ev.Distance(q, t.rankings[c.Child.ID]))
		}
		t.walk(c.Child, q, radius, ev, out, cd)
	}
}

// Stats describes the shape of a BK-tree; the paper notes the tree is
// unbalanced and worst-case quadratic to build, which Stats makes visible.
type Stats struct {
	Nodes     int
	MaxDepth  int
	AvgDepth  float64
	MaxFanout int
	Leaves    int
}

// Stats computes shape statistics by a full walk.
func (t *Tree) Stats() Stats {
	var s Stats
	if t.Root == nil {
		return s
	}
	totalDepth := 0
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		totalDepth += depth
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		if len(n.Children) > s.MaxFanout {
			s.MaxFanout = len(n.Children)
		}
		if len(n.Children) == 0 {
			s.Leaves++
		}
		for _, e := range n.Children {
			walk(e.Child, depth+1)
		}
	}
	walk(t.Root, 0)
	s.AvgDepth = float64(totalDepth) / float64(s.Nodes)
	return s
}

// Walk visits every node in preorder until fn returns false.
func (t *Tree) Walk(fn func(n *Node, depth int) bool) {
	if t.Root == nil {
		return
	}
	var rec func(n *Node, depth int) bool
	rec = func(n *Node, depth int) bool {
		if !fn(n, depth) {
			return false
		}
		for _, e := range n.Children {
			if !rec(e.Child, depth+1) {
				return false
			}
		}
		return true
	}
	rec(t.Root, 0)
}

// Partition is one cluster extracted by Partitions: the medoid ranking and
// the forest of members within θC of it, kept in BK-tree form so the coarse
// index can answer the original θ-range query on the cluster without
// exhaustively evaluating its members (Section 4.1, Figure 1).
type Partition struct {
	// Medoid is the representative ranking; every member satisfies
	// d(medoid, member) ≤ θC (raw).
	Medoid ranking.ID
	// Root is a synthetic node for the medoid whose children are exactly the
	// subtrees of the original node with edge distance ≤ θC. It is a valid
	// BK-tree rooted at the medoid.
	Root *Node
	// Size is the number of rankings in the partition, including the medoid.
	Size int
}

// Partitions cuts the tree into disjoint partitions with pairwise-to-medoid
// distance at most thetaC (raw), per Section 4.1: a node keeps the subtrees
// of its ≤θC edges as its partition; every child reached over a >θC edge
// starts a fresh partition, recursively. The union of all partitions is
// exactly the indexed collection and partitions are disjoint.
func (t *Tree) Partitions(thetaC int) []Partition {
	var parts []Partition
	if t.Root == nil {
		return parts
	}
	var cut func(n *Node)
	cut = func(n *Node) {
		p := Partition{Medoid: n.ID, Root: &Node{ID: n.ID}}
		for _, e := range n.Children {
			if int(e.Dist) <= thetaC {
				p.Root.Children = append(p.Root.Children, e)
			} else {
				cut(e.Child)
			}
		}
		p.Size = subtreeSize(p.Root)
		parts = append(parts, p)
	}
	cut(t.Root)
	return parts
}

func subtreeSize(n *Node) int {
	s := 1
	for _, e := range n.Children {
		s += subtreeSize(e.Child)
	}
	return s
}

// Members returns all ranking ids contained in the partition.
func (p Partition) Members() []ranking.ID {
	var ids []ranking.ID
	var walk func(n *Node)
	walk = func(n *Node) {
		ids = append(ids, n.ID)
		for _, e := range n.Children {
			walk(e.Child)
		}
	}
	walk(p.Root)
	return ids
}
