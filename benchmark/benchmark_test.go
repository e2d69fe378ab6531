package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
	"topk/internal/shard"
	"topk/internal/telemetry"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// tinyWorkloads generates every workload over a small collection.
func tinyWorkloads(t *testing.T, seed int64) map[string]*workload {
	t.Helper()
	sc := smokeScale()
	sc.n = 600
	cfg := dataset.NYTLike(sc.n, sc.k)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*workload)
	for _, name := range workloadNames {
		w, err := generate(name, rs, cfg, sc, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = w
	}
	return out
}

func TestSameSeedSameOperations(t *testing.T) {
	a, b, c := tinyWorkloads(t, 7), tinyWorkloads(t, 7), tinyWorkloads(t, 8)
	for _, name := range workloadNames {
		if a[name].hash() != b[name].hash() {
			t.Errorf("%s: the same seed gave two different operation lists", name)
		}
		if a[name].hash() == c[name].hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same operation list", name)
		}
	}
}

func TestMixedMutationsNeverShareAnID(t *testing.T) {
	w := tinyWorkloads(t, 3)[wlMixedRW]
	seen := make(map[ranking.ID]opKind)
	var inserts, updates, deletes int
	for _, ri := range w.order {
		r := &w.reqs[ri]
		switch r.kind {
		case opInsert:
			inserts++
		case opUpdate, opDelete:
			if prev, dup := seen[r.id]; dup {
				t.Fatalf("id %d is the target of two mutations (%v and %v)", r.id, prev, r.kind)
			}
			seen[r.id] = r.kind
			if upper := int(r.id) >= 600/2; upper != (r.kind == opDelete) {
				t.Errorf("%s of id %d is outside its half of the id range", r.kind.path(), r.id)
			}
			if r.kind == opUpdate {
				updates++
			} else {
				deletes++
			}
		}
	}
	if inserts == 0 || updates == 0 || deletes == 0 {
		t.Errorf("mix is missing a mutation kind: %d inserts, %d updates, %d deletes", inserts, updates, deletes)
	}
	for _, ri := range w.warm {
		if !w.reqs[ri].kind.read() {
			t.Errorf("the warm-up holds a mutation; the oracle assumes it is read-only")
		}
	}
}

func TestKNNQueriesAreUnique(t *testing.T) {
	w := tinyWorkloads(t, 3)[wlKNNUniform]
	seen := make(map[string]bool)
	for _, list := range [][]int32{w.order, w.warm} {
		for _, ri := range list {
			key := w.reqs[ri].queries[0].String()
			if seen[key] {
				t.Fatalf("knn query %s appears twice: the second would be a cache hit", key)
			}
			seen[key] = true
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	// Both of the server's snapshot shapes, as /stats carries them.
	var before, after struct {
		Fsync  telemetry.HistogramSnapshot `json:"fsync"`
		Fanout shard.HistogramSnapshot     `json:"fanout"`
	}
	mustDecode(t, `{"fsync":{"bounds":[0.001,0.002,0.004],"counts":[10,0,0,0],"count":10,"sum":0.005},
		"fanout":{"count":4,"sumMicros":100,"buckets":[0,4],"bucketBoundsMicros":[1,2]}}`, &before)
	mustDecode(t, `{"fsync":{"bounds":[0.001,0.002,0.004],"counts":[10,8,2,0],"count":20,"sum":0.025},
		"fanout":{"count":14,"sumMicros":500,"buckets":[0,4,0,10],"bucketBoundsMicros":[1,2,4,8]}}`, &after)

	d := histDelta(after.Fsync, before.Fsync)
	if d.Count != 10 {
		t.Fatalf("delta holds %d observations, want the 10 made between the scrapes", d.Count)
	}
	if got := d.Quantile(0.5); got <= 0.001 || got > 0.002 {
		t.Errorf("delta p50 = %v, want inside the (0.001, 0.002] bucket: the first scrape's fast fsyncs must not count", got)
	}
	if got := d.Quantile(0.99); got <= 0.002 || got > 0.004 {
		t.Errorf("delta p99 = %v, want inside (0.002, 0.004]", got)
	}
	if math.Abs(d.Sum-0.02) > 1e-12 {
		t.Errorf("delta sum = %v, want 0.02", d.Sum)
	}
	f := histDelta(micros(after.Fanout), micros(before.Fanout))
	if f.Count != 10 || f.Sum != 400 {
		t.Errorf("fanout delta: %d observations, sum %v; want 10 and 400: a snapshot trimmed to fewer buckets must still subtract", f.Count, f.Sum)
	}
	if got := f.Quantile(0.5); got <= 4 || got > 8 {
		t.Errorf("fanout delta p50 = %v, want inside (4, 8]", got)
	}
}

func TestPlannerAndPrometheusDeltas(t *testing.T) {
	var s0, s1 scrape
	mustDecode(t, `{"planner":[{"backend":"inverted","plans":10,"observations":74,"mispredicts":1}]}`, &s0.serverStats)
	mustDecode(t, `{"planner":[{"backend":"inverted","plans":40,"observations":104,"mispredicts":4},
		{"backend":"adaptsearch","plans":5,"observations":5}]}`, &s1.serverStats)
	plans, obs, mis := s1.plans(s0)
	if plans["inverted"] != 30 || plans["adaptsearch"] != 5 || obs != 35 || mis != 3 {
		t.Errorf("plans delta = %v, observations %d, mispredicts %d; want inverted:30 adaptsearch:5, 35, 3", plans, obs, mis)
	}
	text := "# HELP topkserve_epoch_rebuild_seconds_total x\n" +
		"topkserve_epoch_rebuild_seconds_total{collection=\"default\",shard=\"0\"} 1.5\n" +
		"topkserve_epoch_rebuild_seconds_total{collection=\"default\",shard=\"1\"} 2.25\n" +
		"topkserve_epoch_rebuild_seconds_total_other 100\n"
	if got := promSum(text, "topkserve_epoch_rebuild_seconds_total"); got != 3.75 {
		t.Errorf("promSum = %v, want 3.75: the two shard samples and nothing else", got)
	}
}

func TestParseProcStat(t *testing.T) {
	u, err := parseProcStat("4242 (topk serve) R) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 200 18446744073709551615")
	if err != nil {
		t.Fatal(err)
	}
	if u.user != 2500*time.Millisecond || u.sys != 500*time.Millisecond {
		t.Errorf("user %v sys %v, want 2.5s and 0.5s: a command name with spaces and parentheses must not shift the fields", u.user, u.sys)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("a malformed stat line parsed")
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	r := newRecorder()
	at := func(us int) time.Time { return r.t0.Add(time.Duration(us) * time.Microsecond) }
	sock := r.add("w", 0, -1, "client", "socket", at(0), at(300))
	hand := r.add("w", 0, sock, "server", "handler", at(1000), at(1200)) // replayed later: does not nest on the clock
	r.add("w", 0, hand, "qcache", "qcache.get", at(2000), at(2010))
	call := r.add("w", 0, hand, "shard", "shard.call", at(2010), at(2110))
	r.add("w", 0, call, "hybrid", "hybrid.call", at(3000), at(3040)) // shard 0
	r.add("w", 0, call, "hybrid", "hybrid.call", at(3040), at(3110)) // shard 1, the slower
	self := selfTimes(r.spans, slowestChildren(r.spans))
	want := []time.Duration{100, 90, 10, 30, 40, 70}
	for i, w := range want {
		if self[i] != w*time.Microsecond {
			t.Errorf("span %d (%s): self %v, want %vµs", i, r.spans[i].Name, self[i], int(w))
		}
	}
	// socket = transport + handler; handler = self + cache + shard call; the
	// shard call waits for the slower of its two parallel children only.
	var nilRec *recorder
	if id := nilRec.add("w", 0, -1, "client", "socket", at(0), at(1)); id != -1 {
		t.Errorf("a nil recorder recorded span %d", id)
	}
}

func TestMergeByOpRestoresListOrder(t *testing.T) {
	a := []opRecord{{op: 0}, {op: 3}, {op: 4}}
	b := []opRecord{{op: 1}, {op: 2}, {op: 5}}
	for i, r := range mergeByOp([][]opRecord{a, b}) {
		if int(r.op) != i {
			t.Fatalf("position %d holds op %d", i, r.op)
		}
	}
}

// TestWindowsCutCorrectAndTakeTheMedian: operations are filed under the
// part their reply ended in, the sliver after the last tick joins the part
// before it, each part's numbers are divided by the host's slowdown during
// it, and one disturbed part does not move the median.
func TestWindowsCutCorrectAndTakeTheMedian(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []cpuSample{
		{at: at(0)}, {at: at(1000), cpu: 500 * time.Millisecond}, {at: at(2000), cpu: 1000 * time.Millisecond},
		{at: at(3000), cpu: 1500 * time.Millisecond}, {at: at(3010), cpu: 1500 * time.Millisecond},
	}
	w := &workload{reqs: []request{{kind: opSearch}, {kind: opBatch, queries: make([]ranking.Ranking, 4)}, {kind: opInsert}}}
	res := &phaseResult{start: t0}
	op := func(req int32, endMs, tookMs int, ok bool) {
		end := time.Duration(endMs) * time.Millisecond
		res.records = append(res.records, opRecord{req: req, ok: ok, start: end - time.Duration(tookMs)*time.Millisecond, end: end})
	}
	for i := 0; i < 10; i++ {
		op(0, 100*i+50, 2, true) // part 0: ten searches of 2 ms
	}
	op(1, 1500, 8, true)   // part 1: one batch of four, started in part 1
	op(0, 1600, 3, false)  // failed: counts nowhere
	op(2, 1700, 5, true)   // a write: an operation, not a read latency
	op(0, 2100, 200, true) // part 2: ended in it, though it started in part 1
	op(0, 3005, 4, true)   // the sliver belongs to part 2
	// The host ran at half speed during part 1 and nominally otherwise.
	slow := func(from, to time.Time) float64 {
		if from.Equal(at(1000)) {
			return 2
		}
		return 1
	}
	ws := windows(w, res, samples, slow)
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3: the 10 ms sliver must be merged", len(ws))
	}
	if ws[0].ops != 10 || ws[1].ops != 5 || ws[2].ops != 2 {
		t.Errorf("operations per part = %d %d %d, want 10 5 2", ws[0].ops, ws[1].ops, ws[2].ops)
	}
	if ws[2].length != 1010*time.Millisecond {
		t.Errorf("last part is %v long, want 1.01s", ws[2].length)
	}
	if got := ws[1].reads; len(got) != 1 || got[0] != 8 {
		t.Errorf("part 1 read latencies = %v, want the batch's 8 ms alone", got)
	}
	// Part 1 at half speed: 5 ops/s on the clock is 10 at nominal speed, 8 ms
	// is 4, 100 ms of CPU per operation is 50.
	if ws[1].throughput() != 10 || ws[1].p50() != 4 || ws[1].cpuPerOp() != 50000 {
		t.Errorf("part 1 corrected: %v ops/s, p50 %v ms, %v us/op; want 10, 4, 50000", ws[1].throughput(), ws[1].p50(), ws[1].cpuPerOp())
	}
	if got := medianOver(ws, (*window).p50); got != 4 {
		t.Errorf("median p50 over parts = %v, want 4: one part with a 200 ms reply must not move it", got)
	}
}

// TestPhaseWrapsAReadListUntilTheClock: a clock-bound phase with wrap starts
// its list over, records positions that keep counting, and stops by the clock.
func TestPhaseWrapsAReadListUntilTheClock(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) { rw.Write([]byte("{}")) }))
	defer srv.Close()
	w := &workload{reqs: []request{{kind: opSearch, body: []byte("{}")}, {kind: opKNN, body: []byte("{}")}, {kind: opSearch, body: []byte("{}")}}}
	res := phase{list: []int32{0, 1, 2}, clients: 2, limit: 100 * time.Millisecond, wrap: true}.run(context.Background(), w, srv.URL)
	if len(res.records) <= 3 {
		t.Fatalf("%d operations in 100 ms: the list of 3 did not start over", len(res.records))
	}
	for i, r := range res.records {
		if int(r.op) != i || int(r.req) != i%3 || !r.ok {
			t.Fatalf("record %d: op %d req %d ok %v, want op %d req %d ok", i, r.op, r.req, r.ok, i, i%3)
		}
	}
	if res.wall > 2*time.Second {
		t.Errorf("the phase took %v against a 100 ms limit", res.wall)
	}
	all := phase{list: []int32{0, 1, 2}, clients: 1}.run(context.Background(), w, srv.URL)
	if len(all.records) != 3 {
		t.Errorf("a phase without limit ran %d operations, want its 3", len(all.records))
	}
}

func TestSpeedometerReadsAPositiveSlowdown(t *testing.T) {
	sp, err := startSpeedometer()
	if err != nil {
		t.Fatal(err)
	}
	from := time.Now()
	time.Sleep(5 * probeEvery)
	sp.close()
	if got := sp.slowdown(from, time.Now()); got <= 0.05 || got > 50 {
		t.Errorf("slowdown = %v: not a plausible ratio of probe times", got)
	}
	if got := sp.slowdown(from.Add(-time.Hour), from.Add(-time.Minute)); got != 1 {
		t.Errorf("slowdown over a stretch without probes = %v, want 1 (no correction)", got)
	}
	early := []speedSample{{from, 2 * nominalProbe}, {from.Add(time.Second), 4 * nominalProbe}}
	if got := meanProbe(early, from, from.Add(2*time.Second)) / float64(nominalProbe); got != 3 {
		t.Errorf("mean of a 2x and a 4x probe = %vx, want 3x", got)
	}
}

func TestVerifyReadsCatchesAWrongAnswer(t *testing.T) {
	rs := []ranking.Ranking{{1, 2, 3}, {1, 3, 2}, {7, 8, 9}}
	q := ranking.Ranking{1, 2, 3}
	w := &workload{reqs: []request{{kind: opSearch, queries: []ranking.Ranking{q}, theta: 0.2}}}
	good := opRecord{ok: true, body: []byte(`{"count":2,"results":[{"id":0,"dist":0},{"id":1,"dist":2}]}`)}
	if _, bad, rep := verifyReads(w, []opRecord{good}, difftest.NewOracle(rs)); bad != 0 {
		t.Fatalf("a correct reply was reported: %v", rep)
	}
	for name, body := range map[string]string{
		"missing result": `{"count":1,"results":[{"id":0,"dist":0}]}`,
		"wrong distance": `{"count":2,"results":[{"id":0,"dist":0},{"id":1,"dist":1}]}`,
		"wrong count":    `{"count":3,"results":[{"id":0,"dist":0},{"id":1,"dist":2}]}`,
		"not JSON":       `<html>`,
	} {
		rec := opRecord{ok: true, body: []byte(body)}
		if _, bad, _ := verifyReads(w, []opRecord{rec}, difftest.NewOracle(rs)); bad != 1 {
			t.Errorf("%s: %d mismatches reported, want 1", name, bad)
		}
	}
}

// TestBenchmarkJSONMatchesTheHarness runs the smallest real thing — one
// workload against a spawned topkserve, untraced and traced — and checks that
// what it prints is what BENCHMARK.json promises.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns topkserve")
	}
	var contract struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(gatedWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness gates %d", len(contract.Workloads), len(gatedWorkloads))
	}
	for i, wl := range contract.Workloads {
		if i < len(gatedWorkloads) && wl.Name != gatedWorkloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, wl.Name, gatedWorkloads[i])
		}
	}

	ctx := context.Background()
	build := t.TempDir()
	bin, err := buildServer(ctx, "..", build)
	if err != nil {
		t.Fatal(err)
	}
	sc := smokeScale()
	sc.n = 2000
	e, err := newEnv(build, bin, sc, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e.spans = newRecorder()
	for _, name := range []string{wlPointZipf, wlMixedRW} {
		rep, err := e.measure(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() || rep.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, rep.attempted, rep.failed, rep.notes)
		}
		sameNames(t, name+" end_to_end", contract.EndToEnd, rep.endToEnd, gated)
		traced, err := e.traced(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !traced.correct() {
			t.Errorf("%s traced: failed %d: %v", name, traced.failed, traced.notes)
		}
		sameNames(t, name+" per_layer", contract.PerLayer, traced.layers, nil)
	}
	if len(e.spans.spans) == 0 {
		t.Error("the traced runs recorded no spans")
	}
}

// sameNames checks that the contract's metrics are exactly those of got
// (restricted to only, when given), with the same units.
func sameNames(t *testing.T, what string, contract []struct{ Name, Unit string }, got []reading, only []string) {
	t.Helper()
	units := make(map[string]string)
	for _, m := range got {
		units[m.name] = m.unit
	}
	if only != nil {
		for name := range units {
			if !slices.Contains(only, name) {
				delete(units, name)
			}
		}
	}
	for _, c := range contract {
		if u, ok := units[c.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json promises %s, the harness does not print it", what, c.Name)
		} else if u != c.Unit {
			t.Errorf("%s: %s is in %q in BENCHMARK.json and %q in the harness", what, c.Name, c.Unit, u)
		}
		delete(units, c.Name)
	}
	for name := range units {
		t.Errorf("%s: the harness prints %s, BENCHMARK.json does not list it", what, name)
	}
}

func mustDecode(t *testing.T, s string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(s), v); err != nil {
		t.Fatal(err)
	}
}
