package bktree

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
