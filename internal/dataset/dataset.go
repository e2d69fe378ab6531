// Package dataset synthesizes ranking collections with the statistical
// fingerprints of the paper's two benchmarks, and query workloads over
// them. The original corpora are not redistributable (the New York Times
// archive is licensed; the mined Yago entity rankings were never released),
// so this package generates the closest synthetic equivalents: what every
// algorithm in this library actually consumes is (a) the Zipf skew of item
// popularity, which drives inverted-list lengths, and (b) the
// near-duplicate cluster structure, which drives the pairwise-distance CDF
// and hence partition sizes. Both are explicit parameters here, preset to
// the values the authors measured (s = 0.87 for NYT, s = 0.53 for Yago).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"topk/internal/ranking"
)

// Config parameterizes a synthetic ranking collection.
type Config struct {
	// N is the number of rankings to generate.
	N int
	// K is the ranking size.
	K int
	// V is the global item domain size.
	V int
	// ZipfS is the skew of item popularity (0 = uniform).
	ZipfS float64
	// ClusterRate is the probability that a ranking is generated as a
	// perturbed near-duplicate of an earlier ranking rather than fresh —
	// the structure query logs exhibit (reformulated queries share most of
	// their result lists) and the coarse index exploits.
	ClusterRate float64
	// MaxPerturbations bounds how many edit operations (adjacent swaps,
	// single-item substitutions) a near-duplicate receives; the actual
	// count is uniform in [1, MaxPerturbations].
	MaxPerturbations int
	// DuplicateRate is the probability that a clustered ranking is an exact
	// copy (distance 0) of its source.
	DuplicateRate float64
	// Seed makes generation deterministic.
	Seed int64
}

// NYTLike mimics the paper's New York Times benchmark at a configurable
// scale: web-search result rankings for logged queries, heavy popularity
// skew (few documents appear in very many result lists; measured s = 0.87)
// and many near-duplicate rankings from query reformulations.
func NYTLike(n, k int) Config {
	return Config{
		N:                n,
		K:                k,
		V:                4*n + 1000, // document domain ≫ ranking count
		ZipfS:            0.87,
		ClusterRate:      0.55,
		MaxPerturbations: 4,
		DuplicateRate:    0.25,
		Seed:             1,
	}
}

// YagoLike mimics the paper's Yago entity-ranking benchmark: 25,000
// rankings by default, mild skew (s = 0.53 — entities are spread far more
// evenly than web documents), a large entity domain relative to n, and
// small tight clusters of related rankings.
func YagoLike(n, k int) Config {
	return Config{
		N:                n,
		K:                k,
		V:                3 * n, // entities occur in few rankings each
		ZipfS:            0.53,
		ClusterRate:      0.35,
		MaxPerturbations: 3,
		DuplicateRate:    0.10,
		Seed:             2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("dataset: N must be positive, have %d", c.N)
	}
	if c.K <= 0 || c.K > ranking.MaxK {
		return fmt.Errorf("dataset: K must be in [1,%d], have %d", ranking.MaxK, c.K)
	}
	if c.V < c.K {
		return fmt.Errorf("dataset: domain V=%d smaller than K=%d", c.V, c.K)
	}
	if c.ClusterRate < 0 || c.ClusterRate > 1 {
		return fmt.Errorf("dataset: ClusterRate %f outside [0,1]", c.ClusterRate)
	}
	if c.DuplicateRate < 0 || c.DuplicateRate > 1 {
		return fmt.Errorf("dataset: DuplicateRate %f outside [0,1]", c.DuplicateRate)
	}
	if c.MaxPerturbations < 0 {
		return fmt.Errorf("dataset: MaxPerturbations %d negative", c.MaxPerturbations)
	}
	return nil
}

// ZipfSampler draws items 0..v-1 with P(item i) ∝ 1/(i+1)^s. Unlike
// math/rand's Zipf it supports the s ≤ 1 regime both datasets live in,
// via inverse-CDF sampling over precomputed cumulative weights.
type ZipfSampler struct {
	cum []float64
	rng *rand.Rand
}

// NewZipfSampler precomputes the cumulative distribution (O(v) space).
func NewZipfSampler(v int, s float64, rng *rand.Rand) *ZipfSampler {
	cum := make([]float64, v)
	var total float64
	for i := 0; i < v; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfSampler{cum: cum, rng: rng}
}

// Next draws one item id.
func (z *ZipfSampler) Next() ranking.Item {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ranking.Item(lo)
}

// Generate produces the collection described by c.
func Generate(c Config) ([]ranking.Ranking, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	zipf := NewZipfSampler(c.V, c.ZipfS, rng)
	rs := make([]ranking.Ranking, 0, c.N)
	fresh := func() ranking.Ranking {
		r := make(ranking.Ranking, 0, c.K)
		seen := make(map[ranking.Item]struct{}, c.K)
		for len(r) < c.K {
			it := zipf.Next()
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		return r
	}
	for len(rs) < c.N {
		if len(rs) > 0 && rng.Float64() < c.ClusterRate {
			src := rs[rng.Intn(len(rs))]
			if rng.Float64() < c.DuplicateRate {
				rs = append(rs, src.Clone())
				continue
			}
			rs = append(rs, Perturb(src, 1+rng.Intn(max(1, c.MaxPerturbations)), zipf, rng))
			continue
		}
		rs = append(rs, fresh())
	}
	return rs, nil
}

// Perturb derives a near-duplicate of src by n edit operations: adjacent
// rank swaps (Footrule +2 each at most) and single-item substitutions.
// The result remains duplicate-free.
func Perturb(src ranking.Ranking, n int, zipf *ZipfSampler, rng *rand.Rand) ranking.Ranking {
	r := src.Clone()
	k := len(r)
	for op := 0; op < n; op++ {
		if k >= 2 && rng.Intn(3) < 2 { // 2/3 swaps, 1/3 substitutions
			i := rng.Intn(k - 1)
			r[i], r[i+1] = r[i+1], r[i]
			continue
		}
		for tries := 0; tries < 32; tries++ {
			it := zipf.Next()
			if !r.Contains(it) {
				r[rng.Intn(k)] = it
				break
			}
		}
	}
	return r
}

// Workload draws `count` query rankings for a collection: with probability
// memberRate a (possibly perturbed) member of the collection — the
// realistic case of querying with an observed ranking — and a fresh Zipf
// ranking otherwise. This mirrors the paper's use of held-out real
// rankings as queries.
func Workload(rs []ranking.Ranking, c Config, count int, memberRate float64, seed int64) ([]ranking.Ranking, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("dataset: empty collection")
	}
	if count <= 0 {
		return nil, fmt.Errorf("dataset: need positive query count, have %d", count)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := NewZipfSampler(c.V, c.ZipfS, rng)
	qs := make([]ranking.Ranking, 0, count)
	for len(qs) < count {
		if rng.Float64() < memberRate {
			src := rs[rng.Intn(len(rs))]
			if rng.Intn(2) == 0 {
				qs = append(qs, src.Clone())
			} else {
				qs = append(qs, Perturb(src, 1+rng.Intn(3), zipf, rng))
			}
			continue
		}
		r := make(ranking.Ranking, 0, c.K)
		seen := make(map[ranking.Item]struct{}, c.K)
		for len(r) < c.K {
			it := zipf.Next()
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		qs = append(qs, r)
	}
	return qs, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
