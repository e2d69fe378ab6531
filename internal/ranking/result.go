package ranking

import (
	"cmp"
	"slices"
)

// Result is a query answer: the id of a ranking whose raw Footrule distance
// to the query is Dist (≤ the query threshold).
type Result struct {
	ID   ID
	Dist int
}

// SortResults orders results by id ascending (ids are unique within a
// collection). All query algorithms in this library return the same result
// set; sorting makes the sets directly comparable across algorithms and
// deterministic for golden tests.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
}

// CompareNearest orders results by (distance, id) ascending — the order of
// every NearestNeighbors answer, and so of every sort, heap and merge that
// produces one. Range-search answers use SortResults instead.
func CompareNearest(a, b Result) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
