package kernel

import "topk/internal/ranking"

// Reference is the scalar reference kernel: an independent, deliberately
// naive Footrule over top-k lists (absent items at rank k), written from the
// definition rather than the rank-table identity. It exists purely as the
// differential oracle for the compiled / batched kernels and for
// ranking.Footrule itself — three implementations, one truth.
func Reference(q, tau ranking.Ranking) int {
	k := len(q)
	d := 0
	for pq, it := range q {
		pt := k
		for j, jt := range tau {
			if jt == it {
				pt = j
				break
			}
		}
		delta := pq - pt
		if delta < 0 {
			delta = -delta
		}
		d += delta
	}
	for pt, it := range tau {
		found := false
		for _, jt := range q {
			if jt == it {
				found = true
				break
			}
		}
		if !found {
			d += k - pt
		}
	}
	return d
}
