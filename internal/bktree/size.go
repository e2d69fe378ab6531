package bktree

import "topk/internal/ranking"

// SizeBytes estimates the serialized footprint of the tree: the complete
// rankings payload (all indices store the full rankings, as Table 6 of the
// paper notes) plus, per node, its ranking id and per edge a distance and a
// child offset.
func (t *Tree) SizeBytes() int64 {
	var sz int64 = 16                  // header: k, size
	sz += int64(t.size) * int64(4*t.k) // rankings payload
	var walk func(n *Node)
	walk = func(n *Node) {
		sz += 4 + 4 // node id + child count
		for _, e := range n.Children {
			sz += 4 // edge distance
			walk(e.Child)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return sz
}

// SetRankings rebinds the tree to a (grown) backing collection. Needed by
// incremental insertion in the coarse index: appending to the shared
// rankings slice may reallocate its backing array, and every tree holding
// the old slice header must be repointed before new ids are resolvable.
// The prefix of rs must be identical to the collection the tree was built
// over.
func (t *Tree) SetRankings(rs []ranking.Ranking) { t.rankings = rs }
