package topk

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
)

// metricSubjects are the indexes whose range queries end in a metric-tree
// walk: the three trees, and the coarse index under both partition
// strategies (its validation phase is the BK-tree walk over each retrieved
// partition).
var metricSubjects = []struct {
	name  string
	build func([]Ranking) (Index, error)
}{
	{"BKTree", func(rs []Ranking) (Index, error) { return NewMetricTree(rs, BKTree) }},
	{"MTree", func(rs []Ranking) (Index, error) { return NewMetricTree(rs, MTree) }},
	{"VPTree", func(rs []Ranking) (Index, error) { return NewMetricTree(rs, VPTree) }},
	{"Coarse/BKTreeCut", func(rs []Ranking) (Index, error) { return NewCoarseIndex(rs, WithThetaC(0.3)) }},
	{"Coarse/RandomMedoids", func(rs []Ranking) (Index, error) {
		return NewCoarseIndex(rs, WithThetaC(0.3), WithRandomMedoids(3))
	}},
}

// TestMetricTreeWalkPins pins, over a fixed NYT-like collection and query
// workload, every metric walk's total distance calls (the Figure 10 DFC: an
// exact duplicate reached over a zero-distance BK-tree edge inherits its
// parent's distance without a call) and its exact answers, as a hit count
// and an FNV-1a checksum over every answer's (id, dist) in order. Each
// answer is also held to the linear-scan oracle. A change to a walk's
// pruning or to how it reports distances moves these numbers.
func TestMetricTreeWalkPins(t *testing.T) {
	const n, k = 2000, 10
	cfg := dataset.NYTLike(n, k)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.Workload(rs, cfg, 100, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{0, 0.1, 0.3, 0.5}
	o := difftest.NewOracle(rs)
	// Every subject answers exactly, so all share one hit count and checksum.
	const wantHits, wantSum = 878, 0xa3e88a4d0887266c
	wantDFC := map[string]uint64{
		"BKTree":               268437,
		"MTree":                465236,
		"VPTree":               455416,
		"Coarse/BKTreeCut":     201122,
		"Coarse/RandomMedoids": 161857,
	}
	for _, s := range metricSubjects {
		idx, err := s.build(rs)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		hits := 0
		h := fnv.New64a()
		var buf [8]byte
		for _, q := range qs {
			for _, theta := range thetas {
				got, err := idx.Search(q, theta)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if want, _ := o.Search(q, theta); !difftest.Equal(got, want) {
					t.Fatalf("%s θ=%.1f q=%v:\n got %v\nwant %v", s.name, theta, q, got, want)
				}
				hits += len(got)
				for _, r := range got {
					binary.LittleEndian.PutUint32(buf[:4], uint32(r.ID))
					binary.LittleEndian.PutUint32(buf[4:], uint32(r.Dist))
					h.Write(buf[:])
				}
			}
		}
		if dfc := idx.DistanceCalls(); dfc != wantDFC[s.name] || hits != wantHits || h.Sum64() != wantSum {
			t.Errorf("%s: DFC %d, hits %d, checksum %#x; pinned DFC %d, hits %d, checksum %#x",
				s.name, dfc, hits, h.Sum64(), wantDFC[s.name], wantHits, uint64(wantSum))
		}
	}
}

// FuzzMetricTreesMatchOracle holds every metric walk to the linear-scan
// oracle on ids and distances. Each input byte picks one of 32 rankings of
// size 4 over 7 items, so exact duplicates — zero-distance BK-tree edges,
// whose children inherit their parent's distance — and distance ties are the
// common case; the thresholds reach 1, where the coarse index scans every
// medoid. Seeded into CI's fuzz-smoke step.
func FuzzMetricTreesMatchOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 9, 9, 1, 9, 2})
	f.Add(bytes.Repeat([]byte{3, 3, 35, 17}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 200 {
			data = data[:200]
		}
		const k, domain = 4, 7
		pick := func(b byte) Ranking {
			return difftest.RandomRanking(rand.New(rand.NewSource(int64(b%32))), k, domain)
		}
		rs := make([]Ranking, len(data))
		for i, b := range data {
			rs[i] = pick(b)
		}
		o := difftest.NewOracle(rs)
		queries := []Ranking{rs[0], rs[len(rs)/2], pick(data[len(data)-1] + 7), {7, 8, 9, 10}}
		for _, s := range metricSubjects {
			idx, err := s.build(rs)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			for _, q := range queries {
				for _, theta := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.75, 1} {
					got, err := idx.Search(q, theta)
					if err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
					if want, _ := o.Search(q, theta); !difftest.Equal(got, want) {
						t.Fatalf("%s θ=%.2f q=%v:\n got %v\nwant %v", s.name, theta, q, got, want)
					}
				}
			}
		}
	})
}
