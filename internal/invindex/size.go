package invindex

// SizeBytes estimates the serialized footprint of the index. The plain
// variant stores per posting only the ranking id (4 bytes); the augmented
// variant adds the rank byte (padded to 2 for alignment in the on-disk
// format). Both include the complete rankings payload and per-list headers,
// mirroring Table 6's "Plain Inverted Index" vs "Augmented Inverted Index".
func (idx *Index) SizeBytes(augmented bool) int64 {
	var sz int64 = 16
	sz += int64(len(idx.store.Flat())) * 4
	per := int64(4)
	if augmented {
		per = 6
	}
	sz += 8 * int64(idx.numLists) // item id + list length per list
	return sz + per*int64(len(idx.store.Flat()))
}

// SizeBytesMinimal estimates the oracle's materialized-list footprint.
func (m *Minimal) SizeBytes() int64 {
	var sz int64 = 16
	sz += int64(len(m.rankings)) * int64(4*m.k)
	for key, l := range m.byKey {
		sz += int64(len(key)) + 8 + 4*int64(len(l))
	}
	return sz
}
