package ranking

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomRanking draws a duplicate-free ranking of size k over a domain of
// size v using the given source.
func randomRanking(rng *rand.Rand, k, v int) Ranking {
	if v < k {
		panic("domain smaller than k")
	}
	r := make(Ranking, 0, k)
	seen := make(map[Item]struct{}, k)
	for len(r) < k {
		it := Item(rng.Intn(v))
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		r = append(r, it)
	}
	return r
}

func TestFootrulePaperExample(t *testing.T) {
	// Section 3 example: τ1=[2,5,6,4,1], τ2=[1,4,5], τ3=[0,8,4,5,7] with
	// l = 6 and 1-based ranks gives F(τ1,τ2)=15, F(τ2,τ3)=17, F(τ1,τ3)=22.
	// Our convention is 0-based ranks with l = k, which shifts every rank by
	// one; the distance of same-size lists is invariant under the shift, but
	// the paper's example mixes k=5 and k=3 lists with a common l=6. We
	// verify the invariant-under-shift cases by embedding them at equal k.
	t1 := Ranking{2, 5, 6, 4, 1}
	t3 := Ranking{0, 8, 4, 5, 7}
	// With 0-based ranks and l = 5:
	// item 2: |0-5|=5, 5: |1-3|=2, 6: |2-5|=3, 4: |3-2|=1, 1: |4-5|=1,
	// item 0: |5-0|=5, 8: |5-1|=4, 7: |5-4|=1  => total 22.
	if got := Footrule(t1, t3); got != 22 {
		t.Fatalf("Footrule(t1,t3) = %d, want 22", got)
	}
	if got := Footrule(t3, t1); got != 22 {
		t.Fatalf("Footrule symmetric: got %d, want 22", got)
	}
}

func TestFootruleIdentical(t *testing.T) {
	r := Ranking{9, 7, 5, 3, 1}
	if got := Footrule(r, r); got != 0 {
		t.Fatalf("Footrule(r,r) = %d, want 0", got)
	}
}

func TestFootruleDisjointIsMax(t *testing.T) {
	for k := 1; k <= 25; k++ {
		a := make(Ranking, k)
		b := make(Ranking, k)
		for i := 0; i < k; i++ {
			a[i] = Item(i)
			b[i] = Item(1000 + i)
		}
		want := MaxDistance(k)
		if got := Footrule(a, b); got != want {
			t.Fatalf("k=%d: Footrule(disjoint) = %d, want %d", k, got, want)
		}
	}
}

func TestFootruleSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	Footrule(Ranking{1, 2}, Ranking{1, 2, 3})
}

func TestFootruleSingleSwap(t *testing.T) {
	a := Ranking{1, 2, 3, 4, 5}
	b := Ranking{2, 1, 3, 4, 5}
	if got := Footrule(a, b); got != 2 {
		t.Fatalf("adjacent swap: got %d, want 2", got)
	}
	c := Ranking{5, 2, 3, 4, 1}
	if got := Footrule(a, c); got != 8 {
		t.Fatalf("end swap: got %d, want 8", got)
	}
}

func TestFootruleOneSubstitution(t *testing.T) {
	a := Ranking{1, 2, 3, 4, 5}
	b := Ranking{1, 2, 3, 4, 99}
	// item 5: |4-5|=1 (absent from b), item 99: |5-4|=1 (absent from a).
	if got := Footrule(a, b); got != 2 {
		t.Fatalf("substitution at tail: got %d, want 2", got)
	}
}

func TestFootruleMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const k, v = 10, 40 // small domain forces overlaps
	for trial := 0; trial < 2000; trial++ {
		a := randomRanking(rng, k, v)
		b := randomRanking(rng, k, v)
		c := randomRanking(rng, k, v)
		ab, ba := Footrule(a, b), Footrule(b, a)
		if ab != ba {
			t.Fatalf("symmetry violated: %d vs %d for %v %v", ab, ba, a, b)
		}
		if (ab == 0) != a.Equal(b) {
			t.Fatalf("identity violated: d=%d equal=%v", ab, a.Equal(b))
		}
		ac, bc := Footrule(a, c), Footrule(b, c)
		if ac > ab+bc {
			t.Fatalf("triangle violated: d(a,c)=%d > d(a,b)+d(b,c)=%d", ac, ab+bc)
		}
		if ab < 0 || ab > MaxDistance(k) {
			t.Fatalf("range violated: %d not in [0,%d]", ab, MaxDistance(k))
		}
	}
}

func TestNormalizedFootruleRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a := randomRanking(rng, 10, 30)
		b := randomRanking(rng, 10, 30)
		nf := NormalizedFootrule(a, b)
		if nf < 0 || nf > 1 {
			t.Fatalf("normalized out of range: %f", nf)
		}
	}
	if NormalizedFootrule(Ranking{}, Ranking{}) != 0 {
		t.Fatal("empty rankings should have distance 0")
	}
}

func TestRawThreshold(t *testing.T) {
	cases := []struct {
		theta float64
		k     int
		want  int
	}{
		{0, 10, 0},
		{1, 10, 110},
		{0.5, 10, 55},
		{0.3, 10, 33},
		{0.1, 10, 11},
		{0.2, 5, 6},
		{0.3, 20, 126},
		{2.0, 10, 110}, // clamped
		{-0.1, 10, -1},
	}
	for _, c := range cases {
		if got := RawThreshold(c.theta, c.k); got != c.want {
			t.Errorf("RawThreshold(%v,%d) = %d, want %d", c.theta, c.k, got, c.want)
		}
	}
}

func TestRawThresholdConsistentWithNormalized(t *testing.T) {
	// F ≤ RawThreshold(θ,k)  ⇔  NormalizedFootrule ≤ θ (up to float noise).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		k := 5 + rng.Intn(16)
		a := randomRanking(rng, k, 3*k)
		b := randomRanking(rng, k, 3*k)
		theta := float64(rng.Intn(11)) / 10
		raw := RawThreshold(theta, k)
		d := Footrule(a, b)
		inRaw := d <= raw
		inNorm := float64(d) <= theta*float64(MaxDistance(k))+1e-9
		if inRaw != inNorm {
			t.Fatalf("θ=%v k=%d d=%d raw=%d: raw=%v norm=%v", theta, k, d, raw, inRaw, inNorm)
		}
	}
}

func TestMinDistanceOverlap(t *testing.T) {
	if got := MinDistanceOverlap(10, 0); got != 110 {
		t.Errorf("L(10,0) = %d, want 110", got)
	}
	if got := MinDistanceOverlap(10, 10); got != 0 {
		t.Errorf("L(10,10) = %d, want 0", got)
	}
	if got := MinDistanceOverlap(10, 4); got != 42 {
		t.Errorf("L(10,4) = %d, want 42 (=6*7)", got)
	}
	if got := MinDistanceOverlap(10, -3); got != 110 {
		t.Errorf("negative overlap clamps to 0: got %d", got)
	}
	if got := MinDistanceOverlap(10, 15); got != 0 {
		t.Errorf("overlap>k clamps: got %d", got)
	}
}

// TestMinDistanceOverlapIsTight verifies L(k,ω) is achievable: two rankings
// sharing ω perfectly-aligned top items and disjoint tails realize it.
func TestMinDistanceOverlapIsTight(t *testing.T) {
	for k := 1; k <= 15; k++ {
		for omega := 0; omega <= k; omega++ {
			a := make(Ranking, k)
			b := make(Ranking, k)
			for i := 0; i < k; i++ {
				if i < omega {
					a[i], b[i] = Item(i), Item(i)
				} else {
					a[i], b[i] = Item(100+i), Item(200+i)
				}
			}
			if got, want := Footrule(a, b), MinDistanceOverlap(k, omega); got != want {
				t.Fatalf("k=%d ω=%d: achieved %d, L=%d", k, omega, got, want)
			}
		}
	}
}

// TestMinDistanceOverlapIsLowerBound exhaustively verifies that no pair
// with overlap ω beats L(k,ω), via random search.
func TestMinDistanceOverlapIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		k := 2 + rng.Intn(8)
		a := randomRanking(rng, k, 2*k)
		b := randomRanking(rng, k, 2*k)
		omega := a.Overlap(b)
		if d, l := Footrule(a, b), MinDistanceOverlap(k, omega); d < l {
			t.Fatalf("k=%d ω=%d: d=%d < L=%d for %v %v", k, omega, d, l, a, b)
		}
	}
}

func TestRequiredOverlap(t *testing.T) {
	// ω must be the smallest overlap for which L(k,ω) ≤ rawTheta, i.e.
	// rankings with smaller overlap are safely out of reach.
	for k := 1; k <= 25; k++ {
		for raw := 0; raw <= MaxDistance(k); raw++ {
			omega := RequiredOverlap(raw, k)
			if omega < 0 || omega > k {
				t.Fatalf("k=%d raw=%d: ω=%d out of range", k, raw, omega)
			}
			if MinDistanceOverlap(k, omega) > raw {
				t.Fatalf("k=%d raw=%d: L(k,%d)=%d > raw — ω too small",
					k, raw, omega, MinDistanceOverlap(k, omega))
			}
			if omega > 0 && MinDistanceOverlap(k, omega-1) <= raw {
				t.Fatalf("k=%d raw=%d: ω=%d not minimal", k, raw, omega)
			}
		}
	}
}

func TestRequiredOverlapEdges(t *testing.T) {
	if got := RequiredOverlap(-1, 10); got != 10 {
		t.Errorf("negative threshold: got %d, want k", got)
	}
	if got := RequiredOverlap(MaxDistance(10), 10); got != 0 {
		t.Errorf("threshold=dmax: got %d, want 0", got)
	}
	if got := RequiredOverlap(0, 10); got != 10 {
		t.Errorf("threshold 0 requires full overlap: got %d", got)
	}
}

func TestIsqrt(t *testing.T) {
	for x := 0; x < 10000; x++ {
		r := isqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("isqrt(%d) = %d", x, r)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Ranking{1, 2, 3}).Validate(); err != nil {
		t.Errorf("valid ranking rejected: %v", err)
	}
	if err := (Ranking{1, 2, 1}).Validate(); err == nil {
		t.Error("duplicate not detected (small path)")
	}
	big := make(Ranking, 20)
	for i := range big {
		big[i] = Item(i)
	}
	if err := big.Validate(); err != nil {
		t.Errorf("valid big ranking rejected: %v", err)
	}
	big[19] = big[0]
	if err := big.Validate(); err == nil {
		t.Error("duplicate not detected (sort path)")
	}
	if err := (Ranking{}).Validate(); err != nil {
		t.Errorf("empty ranking rejected: %v", err)
	}
}

// validateRef is the map-based duplicate check Validate must agree with: the
// first position repeating an earlier item, and that item's first position.
func validateRef(r Ranking) error {
	seen := make(map[Item]int, len(r))
	for i, it := range r {
		if j, dup := seen[it]; dup {
			return fmt.Errorf("%w: item %d at ranks %d and %d", ErrDuplicateItem, it, j, i)
		}
		seen[it] = i
	}
	return nil
}

// TestValidateMatchesMapReference: on random rankings of length 0–300,
// either side of both cutoffs, with up to three injected repeats, Validate
// reaches the reference's verdict and names the same ranks.
func TestValidateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for range 3000 {
		n := rng.Intn(301)
		r := randomRanking(rng, n, 4*n+1)
		for m := rng.Intn(4); m > 0 && n > 1; m-- {
			r[rng.Intn(n)] = r[rng.Intn(n)]
		}
		got, want := r.Validate(), validateRef(r)
		if (got == nil) != (want == nil) || got != nil && (got.Error() != want.Error() || !errors.Is(got, ErrDuplicateItem)) {
			t.Fatalf("k=%d: Validate = %v, want %v", n, got, want)
		}
	}
}

// TestValidateAllocs: a valid ranking is checked without allocating at every
// k an index takes, on the pairwise path (10) and the stack sort (25, 255).
func TestValidateAllocs(t *testing.T) {
	for _, k := range []int{10, 25, 255} {
		r := randomRanking(rand.New(rand.NewSource(int64(k))), k, 4*k)
		if n := testing.AllocsPerRun(100, func() {
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("k=%d: %v allocs, want 0", k, n)
		}
	}
}

// TestCheck: the ranking contract takes a ranking of the index's size, or
// of any size when k is 0, and rejects a repeated item in either case.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    Ranking
		k    int
		want error
	}{
		{"exact size", Ranking{3, 1, 2}, 3, nil},
		{"k=0 takes a shorter query", Ranking{3, 1}, 0, nil},
		{"k=0 takes a longer query", Ranking{3, 1, 2, 7, 9}, 0, nil},
		{"k=0 takes the empty query", Ranking{}, 0, nil},
		{"k=0 rejects a repeat", Ranking{3, 1, 3}, 0, ErrDuplicateItem},
		{"too short", Ranking{3, 1}, 3, ErrSizeMismatch},
		{"too long", Ranking{3, 1, 2, 4}, 3, ErrSizeMismatch},
		{"wrong size with a repeat", Ranking{3, 3}, 3, ErrSizeMismatch},
		{"repeat", Ranking{3, 1, 3}, 3, ErrDuplicateItem},
	} {
		err := Check(tc.q, tc.k)
		if (err == nil) != (tc.want == nil) || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: Check(%v, %d) = %v, want %v", tc.name, tc.q, tc.k, err, tc.want)
		}
	}
	q := randomRanking(rand.New(rand.NewSource(1)), 10, 40)
	if n := testing.AllocsPerRun(100, func() { _ = Check(q, 10) }); n != 0 {
		t.Errorf("Check of a valid query: %v allocs, want 0", n)
	}
}

func TestRankAndContains(t *testing.T) {
	r := Ranking{7, 3, 9}
	if pos, ok := r.Rank(3); !ok || pos != 1 {
		t.Errorf("Rank(3) = %d,%v", pos, ok)
	}
	if pos, ok := r.Rank(42); ok || pos != 3 {
		t.Errorf("Rank(absent) = %d,%v; want k=3,false", pos, ok)
	}
	if !r.Contains(9) || r.Contains(4) {
		t.Error("Contains wrong")
	}
}

func TestOverlap(t *testing.T) {
	a := Ranking{1, 2, 3, 4}
	b := Ranking{3, 4, 5, 6}
	if got := a.Overlap(b); got != 2 {
		t.Errorf("Overlap = %d, want 2", got)
	}
	if got := b.Overlap(a); got != 2 {
		t.Errorf("Overlap not symmetric: %d", got)
	}
	if got := a.Overlap(a); got != 4 {
		t.Errorf("self overlap = %d", got)
	}
	// Map path.
	big1 := make(Ranking, 30)
	big2 := make(Ranking, 30)
	for i := range big1 {
		big1[i] = Item(i)
		big2[i] = Item(i + 15)
	}
	if got := big1.Overlap(big2); got != 15 {
		t.Errorf("big overlap = %d, want 15", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Ranking{1, 2, 3}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone aliases original")
	}
}

func TestStringParseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		r := randomRanking(rng, 1+rng.Intn(15), 100)
		p, err := Parse(r.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", r.String(), err)
		}
		if !p.Equal(r) {
			t.Fatalf("roundtrip: %v != %v", p, r)
		}
	}
}

func TestParseForms(t *testing.T) {
	for _, s := range []string{"[1, 2, 3]", "1,2,3", "1 2 3", "  [1,2,3]  "} {
		r, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !r.Equal(Ranking{1, 2, 3}) {
			t.Fatalf("Parse(%q) = %v", s, r)
		}
	}
	if r, err := Parse("[]"); err != nil || len(r) != 0 {
		t.Errorf("Parse empty: %v, %v", r, err)
	}
	if _, err := Parse("[1,2,x]"); err == nil {
		t.Error("Parse accepted garbage")
	}
	if _, err := Parse("[1,2,1]"); err == nil {
		t.Error("Parse accepted duplicate")
	}
}

func TestDomainSorted(t *testing.T) {
	r := Ranking{9, 1, 5}
	d := r.Domain()
	if len(d) != 3 || d[0] != 1 || d[1] != 5 || d[2] != 9 {
		t.Errorf("Domain = %v", d)
	}
}

func TestKendallTauBasics(t *testing.T) {
	a := Ranking{1, 2, 3}
	if got := KendallTau(a, a); got != 0 {
		t.Errorf("K(a,a) = %d", got)
	}
	b := Ranking{2, 1, 3}
	if got := KendallTau(a, b); got != 1 {
		t.Errorf("adjacent swap: K = %d, want 1", got)
	}
	rev := Ranking{3, 2, 1}
	if got := KendallTau(a, rev); got != 3 {
		t.Errorf("reversal: K = %d, want 3 (=C(3,2))", got)
	}
	disj := Ranking{7, 8, 9}
	if got := KendallTau(a, disj); got != MaxKendallTau(3) {
		t.Errorf("disjoint: K = %d, want %d", got, MaxKendallTau(3))
	}
}

func TestKendallTauSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		a := randomRanking(rng, 6, 18)
		b := randomRanking(rng, 6, 18)
		if KendallTau(a, b) != KendallTau(b, a) {
			t.Fatalf("K not symmetric for %v %v", a, b)
		}
	}
}

// TestFootruleKendallDiaconisGraham checks the classical relation
// K ≤ F ≤ 2K for full permutations over the same domain.
func TestFootruleKendallDiaconisGraham(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := Ranking{0, 1, 2, 3, 4, 5, 6}
	for trial := 0; trial < 300; trial++ {
		perm := base.Clone()
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		f := Footrule(base, perm)
		kd := KendallTau(base, perm)
		if f < kd || f > 2*kd {
			t.Fatalf("Diaconis–Graham violated: K=%d F=%d for %v", kd, f, perm)
		}
	}
}

// Property-based testing via testing/quick: Footrule metric axioms on
// rankings generated from arbitrary uint32 seeds.
func TestQuickFootruleSymmetry(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := randomRanking(rand.New(rand.NewSource(seedA)), 8, 24)
		rb := randomRanking(rand.New(rand.NewSource(seedB)), 8, 24)
		return Footrule(ra, rb) == Footrule(rb, ra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFootruleTriangle(t *testing.T) {
	f := func(sa, sb, sc int64) bool {
		ra := randomRanking(rand.New(rand.NewSource(sa)), 7, 20)
		rb := randomRanking(rand.New(rand.NewSource(sb)), 7, 20)
		rc := randomRanking(rand.New(rand.NewSource(sc)), 7, 20)
		return Footrule(ra, rc) <= Footrule(ra, rb)+Footrule(rb, rc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapBound(t *testing.T) {
	// Rankings with overlap below RequiredOverlap(raw,k) always exceed raw.
	f := func(sa, sb int64, rawSeed uint16) bool {
		const k = 9
		ra := randomRanking(rand.New(rand.NewSource(sa)), k, 27)
		rb := randomRanking(rand.New(rand.NewSource(sb)), k, 27)
		raw := int(rawSeed) % (MaxDistance(k) + 1)
		omega := RequiredOverlap(raw, k)
		if ra.Overlap(rb) < omega {
			return Footrule(ra, rb) > raw
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFootrule(b *testing.B) {
	for _, k := range []int{5, 10, 20} {
		rng := rand.New(rand.NewSource(1))
		a := randomRanking(rng, k, 3*k)
		c := randomRanking(rng, k, 3*k)
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = Footrule(a, c)
			}
		})
	}
}

var sink int

func itoa(k int) string {
	if k >= 10 {
		return string(rune('0'+k/10)) + string(rune('0'+k%10))
	}
	return string(rune('0' + k))
}
