package ranking

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// FuzzParse checks that Parse either rejects its input or produces a
// ranking whose String form parses back to the same value.
func FuzzParse(f *testing.F) {
	f.Add("[1, 2, 3]")
	f.Add("1,2,3")
	f.Add("")
	f.Add("[]")
	f.Add("[4294967295]")
	f.Add("[1, 1]")
	f.Add("[1, x]")
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("Parse produced invalid ranking %v: %v", r, err)
		}
		back, err := Parse(r.String())
		if err != nil {
			t.Fatalf("roundtrip parse failed for %v: %v", r, err)
		}
		if !back.Equal(r) {
			t.Fatalf("roundtrip changed value: %v -> %v", r, back)
		}
	})
}

// rankingFromBytes decodes a duplicate-free ranking of size k directly from
// fuzz input bytes (two bytes per item attempt, duplicates skipped, missing
// tail filled deterministically) — a rawer derivation than the seeded-rand
// construction of FuzzFootruleMetric, so the fuzzer steers item patterns
// (shared prefixes, near-misses, dense collisions) byte by byte.
func rankingFromBytes(data []byte, k int) (Ranking, []byte) {
	r := make(Ranking, 0, k)
	seen := make(map[Item]struct{}, k)
	for len(r) < k && len(data) >= 2 {
		it := Item(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		r = append(r, it)
	}
	for next := Item(1 << 20); len(r) < k; next++ {
		if _, dup := seen[next]; dup {
			continue
		}
		seen[next] = struct{}{}
		r = append(r, next)
	}
	return r, data
}

// FuzzFootrule feeds byte-derived valid rankings through the Footrule
// implementations: symmetry, identity of indiscernibles, triangle
// inequality, parity and range, and agreement between Footrule and
// NormalizedFootrule. FuzzKernelDifferential holds Footrule against
// kernel.Reference and the compiled kernel.
func FuzzFootrule(f *testing.F) {
	f.Add(uint8(10), []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(25), []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, kSeed uint8, data []byte) {
		k := 1 + int(kSeed)%25
		a, rest := rankingFromBytes(data, k)
		b, rest := rankingFromBytes(rest, k)
		c, _ := rankingFromBytes(rest, k)
		if err := a.Validate(); err != nil {
			t.Fatalf("derived ranking invalid: %v", err)
		}
		ab := Footrule(a, b)
		if ab != Footrule(b, a) {
			t.Fatal("symmetry violated")
		}
		if (ab == 0) != a.Equal(b) {
			t.Fatal("identity violated")
		}
		if ab < 0 || ab > MaxDistance(k) {
			t.Fatalf("range violated: %d", ab)
		}
		if ab%2 != 0 {
			t.Fatalf("parity violated: %d", ab)
		}
		if Footrule(a, c) > ab+Footrule(b, c) {
			t.Fatal("triangle violated")
		}
		norm := NormalizedFootrule(a, b)
		if norm < 0 || norm > 1 {
			t.Fatalf("normalized distance %f outside [0,1]", norm)
		}
		if raw := RawThreshold(norm, k); raw < ab {
			t.Fatalf("RawThreshold(NormalizedFootrule) = %d excludes the distance %d itself", raw, ab)
		}
	})
}

// FuzzParseRanking checks the full print/parse round-trip on byte-derived
// valid rankings — the inverse direction of FuzzParse, which starts from
// arbitrary strings — plus whitespace/bracket variants of the same value.
func FuzzParseRanking(f *testing.F) {
	f.Add(uint8(5), []byte{9, 0, 1, 0, 0, 2}, uint8(0))
	f.Add(uint8(1), []byte{255, 255}, uint8(1))
	f.Add(uint8(12), []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, kSeed uint8, data []byte, sep uint8) {
		k := 1 + int(kSeed)%25
		r, _ := rankingFromBytes(data, k)
		s := r.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(String(%v)) failed: %v", r, err)
		}
		if !back.Equal(r) {
			t.Fatalf("round-trip changed value: %v -> %v", r, back)
		}
		// The same value in the other accepted spellings.
		var alt string
		switch sep % 3 {
		case 0: // bare comma-separated
			alt = strings.Trim(s, "[]")
		case 1: // space-separated
			alt = strings.ReplaceAll(strings.Trim(s, "[]"), ",", " ")
		default: // tabs and redundant whitespace
			alt = "  " + strings.ReplaceAll(strings.Trim(s, "[]"), ", ", "\t") + " "
		}
		back, err = Parse(alt)
		if err != nil {
			t.Fatalf("Parse(%q) failed: %v", alt, err)
		}
		if !back.Equal(r) {
			t.Fatalf("alternate spelling %q parsed to %v, want %v", alt, back, r)
		}
	})
}

// FuzzFootruleMetric derives three rankings from the fuzzed seeds and
// checks the metric axioms plus the Lemma-2 overlap bound.
func FuzzFootruleMetric(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), uint8(10))
	f.Add(int64(0), int64(0), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, sa, sb, sc int64, kSeed uint8) {
		k := 1 + int(kSeed)%24
		mk := func(seed int64) Ranking {
			rng := rand.New(rand.NewSource(seed))
			return randomRanking(rng, k, 3*k)
		}
		a, b, c := mk(sa), mk(sb), mk(sc)
		ab := Footrule(a, b)
		if ab != Footrule(b, a) {
			t.Fatal("symmetry violated")
		}
		if (ab == 0) != a.Equal(b) {
			t.Fatal("identity violated")
		}
		if ab < 0 || ab > MaxDistance(k) {
			t.Fatalf("range violated: %d", ab)
		}
		if ab%2 != 0 {
			t.Fatalf("Footrule parity violated: %d (always even for same-size lists)", ab)
		}
		if Footrule(a, c) > ab+Footrule(b, c) {
			t.Fatal("triangle violated")
		}
		if l := MinDistanceOverlap(k, a.Overlap(b)); ab < l {
			t.Fatalf("overlap bound violated: d=%d < L=%d", ab, l)
		}
	})
}
