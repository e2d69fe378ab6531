package kernel

import (
	"testing"

	"topk/internal/ranking"
)

// FuzzKernelDifferential decodes two rankings of equal length from raw bytes
// and asserts the compiled kernel (dense or sparse), the batched path, and
// ranking.Footrule all agree
// with the naive reference. Byte layout: first byte is k (clamped), then
// 4-byte little-endian items, q first then tau; duplicate items are skipped
// so both lists are valid rankings.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 32, 0, 1, 0, 0, 0, 0, 0, 32, 0, 1, 0, 0, 0}) // items straddling MaxDenseItems
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 255, 255})           // max uint32 item → sparse
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
		q, ok := decode()
		if !ok {
			return
		}
		tau, ok := decode()
		if !ok {
			return
		}
		want := Reference(q, tau)
		if got := ranking.Footrule(q, tau); got != want {
			t.Fatalf("ranking.Footrule=%d reference=%d q=%v tau=%v", got, want, q, tau)
		}
		kn := New()
		kn.Compile(q)
		if got := kn.Distance(tau); got != want {
			t.Fatalf("kernel=%d reference=%d sparse=%v q=%v tau=%v", got, want, kn.sparse, q, tau)
		}
		st := NewStore([]ranking.Ranking{tau, q})
		dists := kn.FootruleMany(st, []ranking.ID{0, 1}, nil)
		if dists[0] != want {
			t.Fatalf("batched=%d reference=%d", dists[0], want)
		}
		if dists[1] != 0 {
			t.Fatalf("self-distance=%d, want 0", dists[1])
		}
	})
}
