package kernel

import (
	"testing"

	"topk/internal/ranking"
)

// FuzzKernelDifferential decodes three rankings of equal length from raw
// bytes — a first query, a second query and a candidate tau — compiles both
// queries on one kernel, and asserts that for each the compiled kernel, the
// batched path and ranking.Footrule agree with the naive reference against
// tau. The second query runs on the table the first one wrote, so an entry
// Compile failed to clear shows as a wrong distance. Byte layout: first byte
// is k (k = byte%32 + 1), then 4-byte little-endian items, the first query,
// the second and tau in turn; duplicate items are skipped so all three are
// valid rankings.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{2, // k = 3: the first query's items are tau's
		3, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0,
		1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0,
		3, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{1, // k = 2, items straddling MaxDenseItems
		255, 255, 31, 0, 5, 0, 0, 0,
		0, 0, 32, 0, 1, 0, 0, 0,
		255, 255, 31, 0, 0, 0, 32, 0})
	f.Add([]byte{0, // k = 1, max uint32 item on the side list
		7, 0, 0, 0,
		255, 255, 255, 255,
		255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := int(data[0])%32 + 1
		data = data[1:]
		decode := func() (ranking.Ranking, bool) {
			r := make(ranking.Ranking, 0, k)
			seen := make(map[ranking.Item]bool, k)
			for len(r) < k {
				if len(data) < 4 {
					return nil, false
				}
				it := ranking.Item(data[0]) | ranking.Item(data[1])<<8 |
					ranking.Item(data[2])<<16 | ranking.Item(data[3])<<24
				data = data[4:]
				if !seen[it] {
					seen[it] = true
					r = append(r, it)
				}
			}
			return r, true
		}
		first, ok := decode()
		if !ok {
			return
		}
		q, ok := decode()
		if !ok {
			return
		}
		tau, ok := decode()
		if !ok {
			return
		}
		kn := New()
		for _, q := range []ranking.Ranking{first, q} {
			want := Reference(q, tau)
			if got := ranking.Footrule(q, tau); got != want {
				t.Fatalf("ranking.Footrule=%d reference=%d q=%v tau=%v", got, want, q, tau)
			}
			kn.Compile(q)
			if got := kn.Distance(tau); got != want {
				t.Fatalf("kernel=%d reference=%d q=%v tau=%v (after %v)", got, want, q, tau, first)
			}
			st := NewStore([]ranking.Ranking{tau, q})
			dists := kn.FootruleMany(st, []ranking.ID{0, 1}, nil)
			if dists[0] != want {
				t.Fatalf("batched=%d reference=%d", dists[0], want)
			}
			if dists[1] != 0 {
				t.Fatalf("self-distance=%d, want 0", dists[1])
			}
		}
	})
}
