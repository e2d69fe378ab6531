// Package difftest is the cross-kind differential test harness of the
// library: every index kind — static or mutable, sharded or not — is
// checked byte-identical against a linear-scan oracle over the same
// (mutating) collection.
//
// The oracle mirrors the external-id semantics of the mutable facade: ids
// are slot positions, Insert appends a slot, Delete tombstones one forever,
// Update replaces in place. Because every index in this library answers
// range queries exactly and sorts results by id, the comparison is exact
// equality of []ranking.Result — ids, order and raw distances — with no
// tolerance. Test packages across the repo (topk, shard, coarse, topkserve)
// share these helpers instead of hand-rolling per-kind comparison loops.
//
// The package deliberately depends only on internal/ranking so that both
// the facade's tests and the inner packages' tests can import it without
// cycles.
package difftest

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"topk/internal/ranking"
)

// Searcher is the query surface shared by every index in the library.
type Searcher interface {
	Search(q ranking.Ranking, theta float64) ([]ranking.Result, error)
	Len() int
	K() int
}

// Mutable is a Searcher with full mutation support (package topk's
// MutableIndex and the sharded wrapper).
type Mutable interface {
	Searcher
	Insert(r ranking.Ranking) (ranking.ID, error)
	Delete(id ranking.ID) error
	Update(id ranking.ID, r ranking.Ranking) error
}

// Oracle is the linear-scan reference implementation of a mutable
// collection: a slot array where the id of a ranking is its position,
// deleted slots are nil and ids are never reused.
type Oracle struct {
	slots []ranking.Ranking
	k     int
	live  int
}

// NewOracle starts an oracle over a copy of the collection.
func NewOracle(rs []ranking.Ranking) *Oracle {
	o := &Oracle{slots: append([]ranking.Ranking(nil), rs...)}
	for _, r := range rs {
		if r != nil {
			o.k = r.K()
			o.live++
		}
	}
	return o
}

// K returns the ranking size.
func (o *Oracle) K() int { return o.k }

// Len returns the live ranking count.
func (o *Oracle) Len() int { return o.live }

// NumSlots returns the size of the id space (live + retired).
func (o *Oracle) NumSlots() int { return len(o.slots) }

// Live reports whether id names a live ranking.
func (o *Oracle) Live(id ranking.ID) bool {
	return int(id) < len(o.slots) && o.slots[id] != nil
}

// Insert appends a ranking and returns its id. The first ranking of an
// oracle started over zero live slots defines k, as it does for the indexes.
func (o *Oracle) Insert(r ranking.Ranking) ranking.ID {
	if o.k == 0 {
		o.k = r.K()
	}
	o.slots = append(o.slots, r)
	o.live++
	return ranking.ID(len(o.slots) - 1)
}

// Delete tombstones a live id.
func (o *Oracle) Delete(id ranking.ID) error {
	if !o.Live(id) {
		return fmt.Errorf("difftest: unknown id %d", id)
	}
	o.slots[id] = nil
	o.live--
	return nil
}

// Update replaces the ranking under a live id.
func (o *Oracle) Update(id ranking.ID, r ranking.Ranking) error {
	if !o.Live(id) {
		return fmt.Errorf("difftest: unknown id %d", id)
	}
	o.slots[id] = r
	return nil
}

// Slots returns the raw slot view (shared; callers must not modify).
func (o *Oracle) Slots() []ranking.Ranking { return o.slots }

// LiveRankings returns the surviving rankings densely, in id order — the
// collection "rebuilt from scratch" would be built over exactly this slice.
func (o *Oracle) LiveRankings() []ranking.Ranking {
	out := make([]ranking.Ranking, 0, o.live)
	for _, r := range o.slots {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// LiveIDs returns the ids of the surviving rankings ascending.
func (o *Oracle) LiveIDs() []ranking.ID {
	out := make([]ranking.ID, 0, o.live)
	for id, r := range o.slots {
		if r != nil {
			out = append(out, ranking.ID(id))
		}
	}
	return out
}

// RemapToDense rewrites result ids from the oracle's sparse id space to the
// dense id space of an index rebuilt over LiveRankings(): each live id maps
// to its rank among live ids. The mapping is monotonic, so id-sorted
// results stay sorted. Results must reference live ids.
func (o *Oracle) RemapToDense(res []ranking.Result) []ranking.Result {
	dense := make(map[ranking.ID]ranking.ID, o.live)
	next := ranking.ID(0)
	for id, r := range o.slots {
		if r != nil {
			dense[ranking.ID(id)] = next
			next++
		}
	}
	out := make([]ranking.Result, len(res))
	for i, r := range res {
		d, ok := dense[r.ID]
		if !ok {
			panic(fmt.Sprintf("difftest: result id %d is not live", r.ID))
		}
		out[i] = ranking.Result{ID: d, Dist: r.Dist}
	}
	return out
}

// SearchRaw scans all live slots at a raw threshold.
func (o *Oracle) SearchRaw(q ranking.Ranking, rawTheta int) []ranking.Result {
	var out []ranking.Result
	for id, r := range o.slots {
		if r == nil {
			continue
		}
		if d := ranking.Footrule(q, r); d <= rawTheta {
			out = append(out, ranking.Result{ID: ranking.ID(id), Dist: d})
		}
	}
	ranking.SortResults(out)
	return out
}

// Search scans all live slots at a normalized threshold, mirroring the
// facade's Search contract.
func (o *Oracle) Search(q ranking.Ranking, theta float64) ([]ranking.Result, error) {
	return o.SearchRaw(q, ranking.RawThreshold(theta, o.k)), nil
}

// NearestNeighbors scans all live slots and returns the n closest to q in
// (distance, id) order — the reference every index's exact KNN must match
// byte for byte, ties at the cut included.
func (o *Oracle) NearestNeighbors(q ranking.Ranking, n int) []ranking.Result {
	all := o.SearchRaw(q, ranking.MaxDistance(len(q)))
	slices.SortStableFunc(all, func(a, b ranking.Result) int { return cmp.Compare(a.Dist, b.Dist) })
	return all[:max(0, min(n, len(all)))]
}

// Equal reports exact equality of two result slices: same ids, same order,
// same raw distances. Two empty slices are equal regardless of nil-ness.
func Equal(a, b []ranking.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RandomRanking draws a duplicate-free ranking of size k over item domain
// [0, domain).
func RandomRanking(rng *rand.Rand, k, domain int) ranking.Ranking {
	if domain < k {
		panic("difftest: domain smaller than k")
	}
	r := make(ranking.Ranking, 0, k)
	seen := make(map[ranking.Item]struct{}, k)
	for len(r) < k {
		it := ranking.Item(rng.Intn(domain))
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		r = append(r, it)
	}
	return r
}

// Perturb returns a slightly mutated copy of r: a few adjacent swaps and
// possibly one item substitution — the near-duplicate structure the coarse
// index clusters on.
func Perturb(rng *rand.Rand, r ranking.Ranking, domain int) ranking.Ranking {
	c := r.Clone()
	k := len(c)
	if k < 2 {
		return c
	}
	for m := 0; m < 1+rng.Intn(3); m++ {
		i := rng.Intn(k - 1)
		c[i], c[i+1] = c[i+1], c[i]
	}
	if rng.Intn(3) == 0 {
		for {
			it := ranking.Item(rng.Intn(domain))
			if !c.Contains(it) {
				c[rng.Intn(k)] = it
				break
			}
		}
	}
	return c
}

// RandomCollection generates n rankings of size k: a mix of fresh random
// rankings and perturbed near-duplicates of earlier ones, so that both the
// inverted-index and the clustering code paths see realistic structure.
func RandomCollection(rng *rand.Rand, n, k, domain int) []ranking.Ranking {
	out := make([]ranking.Ranking, 0, n)
	for len(out) < n {
		if len(out) == 0 || rng.Intn(3) == 0 {
			out = append(out, RandomRanking(rng, k, domain))
		} else {
			out = append(out, Perturb(rng, out[rng.Intn(len(out))], domain))
		}
	}
	return out
}

// DomainOf returns the smallest item domain covering a collection (max
// item + 1), the value to feed RandomRanking/CheckSearch so random queries
// overlap the collection's items.
func DomainOf(rs []ranking.Ranking) int {
	max := ranking.Item(0)
	for _, r := range rs {
		for _, it := range r {
			if it > max {
				max = it
			}
		}
	}
	return int(max) + 1
}

// queryFor draws a query: half the time a live member of the collection
// (hits partitions and posting lists), half the time a fresh random ranking
// (exercises misses and zero-overlap paths).
func (o *Oracle) queryFor(rng *rand.Rand, domain int) ranking.Ranking {
	if ids := o.LiveIDs(); len(ids) > 0 && rng.Intn(2) == 0 {
		return o.slots[ids[rng.Intn(len(ids))]]
	}
	return RandomRanking(rng, o.k, domain)
}

// Thetas is the normalized threshold grid every differential check runs:
// the paper's evaluation range plus 0 (exact duplicates) and a coarse 0.5.
var Thetas = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}

// CheckSearch verifies that idx answers exactly like the oracle: for trials
// random queries at every threshold in Thetas, the result slices must be
// byte-identical. Also checks the live count.
func CheckSearch(t *testing.T, name string, idx Searcher, o *Oracle, rng *rand.Rand, trials, domain int) {
	t.Helper()
	if idx.Len() != o.Len() {
		t.Fatalf("%s: Len=%d, oracle has %d live rankings", name, idx.Len(), o.Len())
	}
	if idx.K() != o.K() {
		t.Fatalf("%s: K=%d, oracle has k=%d", name, idx.K(), o.K())
	}
	for trial := 0; trial < trials; trial++ {
		q := o.queryFor(rng, domain)
		for _, theta := range Thetas {
			got, err := idx.Search(q, theta)
			if err != nil {
				t.Fatalf("%s: Search(θ=%.2f): %v", name, theta, err)
			}
			want, _ := o.Search(q, theta)
			if !Equal(got, want) {
				t.Fatalf("%s θ=%.2f q=%v:\n got %v\nwant %v", name, theta, q, got, want)
			}
		}
	}
}

// CheckMatch verifies that two searchers agree byte-identically on a query
// workload (e.g. sharded vs unsharded over the same collection).
func CheckMatch(t *testing.T, name string, got, want Searcher, queries []ranking.Ranking, thetas []float64) {
	t.Helper()
	for qi, q := range queries {
		for _, theta := range thetas {
			g, err := got.Search(q, theta)
			if err != nil {
				t.Fatalf("%s: got.Search(θ=%.2f): %v", name, theta, err)
			}
			w, err := want.Search(q, theta)
			if err != nil {
				t.Fatalf("%s: want.Search(θ=%.2f): %v", name, theta, err)
			}
			if !Equal(g, w) {
				t.Fatalf("%s θ=%.2f query %d: answers diverge\n got %v\nwant %v",
					name, theta, qi, g, w)
			}
		}
	}
}

// Mutate applies ops random mutations to idx and the oracle in lockstep:
// ~50% inserts, ~25% deletes, ~25% updates, plus occasional probes that
// mutating a retired or unassigned id fails. Insert ids must match the
// oracle's slot positions (the stable-id contract); the collection never
// drops below one live ranking.
func Mutate(t *testing.T, name string, idx Mutable, o *Oracle, rng *rand.Rand, ops, domain int) {
	t.Helper()
	for op := 0; op < ops; op++ {
		if rng.Intn(20) == 0 {
			// Probe a retired or out-of-range id: both Delete and Update
			// must fail and leave the collection untouched.
			bad := ranking.ID(rng.Intn(o.NumSlots() + 3))
			if !o.Live(bad) {
				if err := idx.Delete(bad); err == nil {
					t.Fatalf("%s: Delete(%d) of dead id succeeded", name, bad)
				}
				if err := idx.Update(bad, RandomRanking(rng, o.k, domain)); err == nil {
					t.Fatalf("%s: Update(%d) of dead id succeeded", name, bad)
				}
			}
		}
		switch c := rng.Intn(4); {
		case c < 2: // insert
			r := o.queryFor(rng, domain) // near-duplicate of a member or fresh
			if rng.Intn(2) == 0 {
				r = Perturb(rng, r, domain)
			}
			id, err := idx.Insert(r)
			if err != nil {
				t.Fatalf("%s: Insert: %v", name, err)
			}
			if want := o.Insert(r); id != want {
				t.Fatalf("%s: Insert returned id %d, oracle assigned %d", name, id, want)
			}
		case c == 2: // delete
			ids := o.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if err := idx.Delete(id); err != nil {
				t.Fatalf("%s: Delete(%d): %v", name, id, err)
			}
			if err := o.Delete(id); err != nil {
				t.Fatalf("%s: oracle Delete(%d): %v", name, id, err)
			}
		default: // update
			ids := o.LiveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			r := Perturb(rng, o.slots[id], domain)
			if rng.Intn(3) == 0 {
				r = RandomRanking(rng, o.k, domain)
			}
			if err := idx.Update(id, r); err != nil {
				t.Fatalf("%s: Update(%d): %v", name, id, err)
			}
			if err := o.Update(id, r); err != nil {
				t.Fatalf("%s: oracle Update(%d): %v", name, id, err)
			}
		}
	}
}
