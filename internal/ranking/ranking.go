// Package ranking defines the top-k ranking domain model used throughout the
// library: fixed-length, duplicate-free lists of item identifiers together
// with the distance measures of Fagin, Kumar and Sivakumar ("Comparing Top k
// Lists", SIAM J. Discrete Math. 2003) that the EDBT 2015 paper builds on.
//
// A Ranking is a slice of item ids where index 0 holds the top-ranked item.
// Ranks therefore run from 0 to k-1 and an item that does not appear in a
// ranking is assigned the artificial rank l = k, exactly as the paper fixes
// it in Section 3. Under this convention Spearman's Footrule remains a
// metric over top-k lists, with maximum value k*(k+1) attained by two
// disjoint rankings.
package ranking

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Item is an item identifier. Rankings are lists of Items.
type Item = uint32

// Ranking is a fixed-size top-k list. The item at index i has rank i
// (0 = best). Rankings must not contain duplicate items; Validate reports
// violations. The zero value is an empty ranking of size 0.
type Ranking []Item

// MaxK is the largest ranking size the library accepts: the inverted family
// and the kernel keep a rank — the absent item's rank k included — in one
// byte, and the WAL, the snapshot formats and the server refuse larger k to
// match.
const MaxK = 255

// ID identifies a ranking within an indexed collection. IDs are dense,
// assigned 0..n-1 in insertion order by the index structures.
type ID = uint32

// ErrDuplicateItem is reported by Validate for rankings that contain the
// same item twice.
var ErrDuplicateItem = errors.New("ranking: duplicate item")

// ErrSizeMismatch is reported when two rankings of different sizes are
// compared, or when a ranking of unexpected size is added to an index.
var ErrSizeMismatch = errors.New("ranking: size mismatch")

// K returns the size of the ranking.
func (r Ranking) K() int { return len(r) }

// Validate checks that the ranking contains no duplicate items. Up to
// sortedK items it allocates nothing: a short ranking is scanned pairwise, a
// longer one sorted in a stack copy.
func (r Ranking) Validate() error {
	if len(r) <= smallK {
		for i := 1; i < len(r); i++ {
			for j := 0; j < i; j++ {
				if r[i] == r[j] {
					return r.firstRepeat()
				}
			}
		}
		return nil
	}
	var buf [sortedK]Item
	s := append(buf[:0], r...)
	slices.Sort(s)
	if len(slices.Compact(s)) < len(r) {
		return r.firstRepeat()
	}
	return nil
}

// firstRepeat names the pair the pairwise scan finds in r, which must hold a
// repeat: positions sorted by (item, position) put it at the adjacent equal
// pair with the smallest later position.
func (r Ranking) firstRepeat() error {
	pos := make([]int, len(r))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int { return cmp.Or(cmp.Compare(r[a], r[b]), a-b) })
	j, i := 0, len(r)
	for x := 1; x < len(pos); x++ {
		if r[pos[x]] == r[pos[x-1]] && pos[x] < i {
			j, i = pos[x-1], pos[x]
		}
	}
	return fmt.Errorf("%w: item %d at ranks %d and %d", ErrDuplicateItem, r[i], j, i)
}

const smallK, sortedK = 16, 256 // Validate: pairwise scan up to smallK, stack sort up to sortedK

// Clone returns a deep copy of the ranking.
func (r Ranking) Clone() Ranking {
	c := make(Ranking, len(r))
	copy(c, r)
	return c
}

// Rank returns the rank of item it in r and true, or k and false when the
// item is not contained in r (the artificial rank l = k of the paper).
func (r Ranking) Rank(it Item) (int, bool) {
	for pos, x := range r {
		if x == it {
			return pos, true
		}
	}
	return len(r), false
}

// Contains reports whether item it appears in r.
func (r Ranking) Contains(it Item) bool {
	_, ok := r.Rank(it)
	return ok
}

// Equal reports whether r and s rank exactly the same items in the same
// order.
func (r Ranking) Equal(s Ranking) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// Overlap returns the number of items the two rankings have in common.
func (r Ranking) Overlap(s Ranking) int {
	n := 0
	for _, a := range r {
		if s.Contains(a) {
			n++
		}
	}
	return n
}

// Domain returns the item set of r as a sorted slice.
func (r Ranking) Domain() []Item {
	d := make([]Item, len(r))
	copy(d, r)
	slices.Sort(d)
	return d
}

// String renders the ranking in the paper's notation, e.g. "[2, 5, 4, 3]".
func (r Ranking) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, it := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatUint(uint64(it), 10))
	}
	b.WriteByte(']')
	return b.String()
}

// Parse parses the textual form produced by String: a comma- or
// space-separated list of non-negative integers, optionally wrapped in
// brackets.
func Parse(s string) (Ranking, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	if strings.TrimSpace(s) == "" {
		return Ranking{}, nil
	}
	fields := strings.FieldsFunc(s, func(c rune) bool { return c == ',' || c == ' ' || c == '\t' })
	r := make(Ranking, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("ranking: parse %q: %w", f, err)
		}
		r = append(r, Item(v))
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MaxDistance returns the maximum possible Footrule distance k*(k+1)
// between two rankings of size k (two disjoint rankings, Section 3).
func MaxDistance(k int) int { return k * (k + 1) }

// Footrule computes the Spearman's Footrule distance between two top-k
// lists under the artificial rank l = k for absent items:
//
//	F(a, b) = Σ_{i ∈ Da ∪ Db} |a(i) − b(i)|
//
// where a(i) = k when i ∉ Da (and symmetrically for b). The result lies in
// [0, k*(k+1)]. Footrule panics if the rankings have different sizes; the
// library only ever compares same-size rankings, as the paper assumes.
func Footrule(a, b Ranking) int {
	k := len(a)
	if len(b) != k {
		panic(fmt.Sprintf("ranking: Footrule on sizes %d and %d", k, len(b)))
	}
	// Quadratic scan: for the small k of top-k lists (5..25) this beats
	// building a position map on every call, and the evaluation counts every
	// call anyway (DFC), so the constant factor matters.
	d := 0
	for pa, it := range a {
		pb, ok := b.rankFast(it)
		if !ok {
			pb = k
		}
		d += abs(pa - pb)
	}
	for pb, it := range b {
		if _, ok := a.rankFast(it); !ok {
			d += k - pb // |k − pb| with pb < k
		}
	}
	return d
}

// rankFast is Rank without the second tuple element allocation in inlining
// paths; kept separate so Footrule stays tight.
func (r Ranking) rankFast(it Item) (int, bool) {
	for pos, x := range r {
		if x == it {
			return pos, true
		}
	}
	return 0, false
}

// NormalizedFootrule returns Footrule(a, b) normalized into [0, 1] by the
// maximum distance k*(k+1). The paper reports all thresholds in this
// normalized form (dmax = 1).
func NormalizedFootrule(a, b Ranking) float64 {
	k := len(a)
	if k == 0 {
		return 0
	}
	return float64(Footrule(a, b)) / float64(MaxDistance(k))
}

// RawThreshold converts a normalized threshold θ ∈ [0,1] into the largest
// raw (integer) Footrule distance it admits for rankings of size k. Footrule
// distances are integers, so the predicate F ≤ θ·k(k+1) is equivalent to
// F ≤ floor(θ·k(k+1)) up to floating point; a small epsilon guards against
// values like 0.3*110 = 32.999999999999996.
func RawThreshold(theta float64, k int) int {
	if theta < 0 {
		return -1
	}
	max := MaxDistance(k)
	raw := int(theta*float64(max) + 1e-9)
	if raw > max {
		raw = max
	}
	return raw
}

// MinDistanceOverlap returns L(k, ω), the smallest possible Footrule
// distance between two rankings of size k that share exactly ω items. The
// minimum is attained when the ω shared items sit perfectly aligned at the
// top of both lists, leaving two disjoint (k−ω)-suffixes: L(k,ω) = L(k−ω).
func MinDistanceOverlap(k, omega int) int {
	if omega >= k {
		return 0
	}
	if omega < 0 {
		omega = 0
	}
	m := k - omega
	return m * (m + 1)
}

// RequiredOverlap returns ω = ⌊0.5·(1 + 2k − sqrt(1+4θ))⌋ of Lemma 2: every
// ranking τ with F(τ,q) ≤ rawTheta must share at least ω items with q.
// rawTheta is the raw (integer) threshold. The result is clamped to [0, k].
func RequiredOverlap(rawTheta, k int) int {
	if rawTheta < 0 {
		return k
	}
	if rawTheta >= MaxDistance(k) {
		return 0
	}
	omega := int(0.5 * (1 + 2*float64(k) - float64(isqrt(1+4*rawTheta))))
	// Guard the floating point: ω must satisfy L(k, ω−1) > rawTheta and be
	// the largest value with L(k,·) still reachable. Walk to the exact
	// boundary; the loop runs at most a couple of steps.
	for omega > 0 && MinDistanceOverlap(k, omega-1) <= rawTheta {
		omega--
	}
	for omega < k && MinDistanceOverlap(k, omega) > rawTheta {
		omega++
	}
	return omega
}

// isqrt returns ⌊√x⌋ for x ≥ 0.
func isqrt(x int) int {
	if x < 0 {
		panic("ranking: isqrt of negative value")
	}
	if x < 2 {
		return x
	}
	r := x
	p := (r + 1) / 2
	for p < r {
		r = p
		p = (r + x/r) / 2
	}
	return r
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// KendallTau computes the Kendall tau distance between two top-k lists
// using the optimistic variant K^(0) of Fagin et al.: a pair of items {i,j}
// counts 1 when the two rankings order it discordantly; pairs where both
// items appear in only one of the lists and their relative order cannot be
// inferred count 0 (the "optimistic approach", penalty p = 0).
// KendallTau is provided for completeness of the rankings substrate; the
// indexing paper itself evaluates only the Footrule metric.
func KendallTau(a, b Ranking) int {
	k := len(a)
	if len(b) != k {
		panic(fmt.Sprintf("ranking: KendallTau on sizes %d and %d", k, len(b)))
	}
	union := make([]Item, 0, 2*k)
	union = append(union, a...)
	for _, it := range b {
		if !a.Contains(it) {
			union = append(union, it)
		}
	}
	// Precompute both rank tables over the union once; probing Rank (a linear
	// scan) four times inside the pair loop below made this O(k³).
	n := len(union)
	aRank := make([]int, n)
	bRank := make([]int, n)
	aHas := make([]bool, n)
	bHas := make([]bool, n)
	for x, it := range union {
		aRank[x], aHas[x] = a.Rank(it)
		bRank[x], bHas[x] = b.Rank(it)
	}
	d := 0
	for x := 1; x < n; x++ {
		for y := 0; y < x; y++ {
			ra, aHasI := aRank[y], aHas[y]
			rb, aHasJ := aRank[x], aHas[x]
			sa, bHasI := bRank[y], bHas[y]
			sb, bHasJ := bRank[x], bHas[x]
			switch {
			case aHasI && aHasJ && bHasI && bHasJ:
				if (ra < rb) != (sa < sb) {
					d++
				}
			case aHasI && aHasJ: // pair fully in a, at most one in b
				if bHasI || bHasJ {
					// The one present in b is "ahead" of the absent one.
					if bHasI && ra > rb { // b says i ahead, a says j ahead
						d++
					}
					if bHasJ && ra < rb {
						d++
					}
				}
				// Neither in b: Case 4 of Fagin et al. — penalty p = 0.
			case bHasI && bHasJ: // symmetric
				if aHasI || aHasJ {
					if aHasI && sa > sb {
						d++
					}
					if aHasJ && sa < sb {
						d++
					}
				}
			default:
				// i in one list only, j in the other only: both lists place
				// their contained item ahead of the absent one — discordant.
				if (aHasI && bHasJ) || (aHasJ && bHasI) {
					d++
				}
			}
		}
	}
	return d
}

// MaxKendallTau returns the maximum K^(0) distance k² of two disjoint
// top-k lists.
func MaxKendallTau(k int) int { return k * k }
