// Parser-based tests of the GET /metrics exposition document: every line
// must be grammatically well-formed, every family must carry # HELP and
// # TYPE headers, le-buckets must be cumulative and end in +Inf, and the
// rendered values must agree with GET /stats after a scripted workload.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"topk/internal/dataset"
	"topk/internal/qcache"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promDoc is a parsed exposition document.
type promDoc struct {
	help    map[string]bool   // family -> # HELP seen
	types   map[string]string // family -> # TYPE value
	samples []promSample
}

// parseExposition hand-parses the text exposition format, failing the test
// on any malformed line. It enforces ordering too: a family's headers must
// precede its first sample.
func parseExposition(t *testing.T, body string) *promDoc {
	t.Helper()
	doc := &promDoc{help: make(map[string]bool), types: make(map[string]string)}
	for ln, line := range strings.Split(body, "\n") {
		ln++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: unrecognized comment %q", ln, line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", ln, name)
			}
			if fields[1] == "HELP" {
				if len(fields) != 4 || fields[3] == "" {
					t.Fatalf("line %d: HELP without text: %q", ln, line)
				}
				doc.help[name] = true
				continue
			}
			if len(fields) != 4 {
				t.Fatalf("line %d: TYPE without kind: %q", ln, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: bad TYPE %q", ln, fields[3])
			}
			if _, dup := doc.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln, name)
			}
			doc.types[name] = fields[3]
			continue
		}
		doc.samples = append(doc.samples, parseSampleLine(t, ln, line))
	}
	// Header/sample ordering and coverage: every sample belongs to a typed,
	// helped family.
	for _, s := range doc.samples {
		fam := familyOf(doc, s.name)
		if fam == "" {
			t.Fatalf("sample %q has no # TYPE header", s.name)
		}
		if !doc.help[fam] {
			t.Fatalf("family %q has no # HELP header", fam)
		}
	}
	return doc
}

// familyOf resolves a sample name to its family, stripping the histogram
// series suffixes when the base name is a declared histogram.
func familyOf(doc *promDoc, name string) string {
	if _, ok := doc.types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && doc.types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// parseSampleLine parses `name{label="value",...} value`.
func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: make(map[string]string)}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad sample name %q", ln, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label block: %q", ln, line)
		}
		for _, pair := range splitLabelPairs(t, ln, rest[1:end]) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				t.Fatalf("line %d: label pair without '=': %q", ln, pair)
			}
			name, quoted := pair[:eq], pair[eq+1:]
			if !labelNameRe.MatchString(name) {
				t.Fatalf("line %d: bad label name %q", ln, name)
			}
			if len(quoted) < 2 || quoted[0] != '"' || quoted[len(quoted)-1] != '"' {
				t.Fatalf("line %d: label value not quoted: %q", ln, pair)
			}
			if _, dup := s.labels[name]; dup {
				t.Fatalf("line %d: duplicate label %q", ln, name)
			}
			s.labels[name] = quoted[1 : len(quoted)-1]
		}
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		t.Fatalf("line %d: missing space before value: %q", ln, line)
	}
	val := strings.TrimPrefix(rest, " ")
	if strings.ContainsAny(val, " \t") {
		t.Fatalf("line %d: trailing garbage after value: %q", ln, line)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, val, err)
	}
	s.value = v
	return s
}

// splitLabelPairs splits a label block on commas outside quotes.
func splitLabelPairs(t *testing.T, ln int, block string) []string {
	t.Helper()
	if block == "" {
		t.Fatalf("line %d: empty label block", ln)
	}
	var pairs []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				pairs = append(pairs, block[start:i])
				start = i + 1
			}
		}
	}
	return append(pairs, block[start:])
}

// find returns the samples of one family name (exact sample-name match).
func (d *promDoc) find(name string) []promSample {
	var out []promSample
	for _, s := range d.samples {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// one returns the single sample matching name and labels, failing otherwise.
func (d *promDoc) one(t *testing.T, name string, labels map[string]string) promSample {
	t.Helper()
	var out []promSample
	for _, s := range d.find(name) {
		ok := true
		for k, v := range labels {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	if len(out) != 1 {
		t.Fatalf("metric %s%v: %d samples, want 1", name, labels, len(out))
	}
	return out[0]
}

// labelSetKey renders a sample's labels (minus le) as a stable key.
func labelSetKey(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, s.labels[k])
	}
	return b.String()
}

// checkHistograms validates every declared histogram family: per child, the
// le bounds strictly increase, bucket counts are cumulative (monotone
// non-decreasing), the series ends at le="+Inf", and the +Inf bucket equals
// the _count sample.
func checkHistograms(t *testing.T, doc *promDoc) {
	t.Helper()
	for fam, typ := range doc.types {
		if typ != "histogram" {
			continue
		}
		buckets := make(map[string][]promSample) // child key -> in order
		for _, s := range doc.find(fam + "_bucket") {
			key := labelSetKey(s)
			buckets[key] = append(buckets[key], s)
		}
		if len(buckets) == 0 {
			t.Errorf("histogram %s has no _bucket samples", fam)
			continue
		}
		counts := childValues(t, doc, fam+"_count")
		sums := childValues(t, doc, fam+"_sum")
		for key, bs := range buckets {
			prevBound := math.Inf(-1)
			prevCum := -1.0
			for i, b := range bs {
				le, ok := b.labels["le"]
				if !ok {
					t.Fatalf("%s child %q: bucket without le", fam, key)
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s child %q: bad le %q", fam, key, le)
				}
				if bound <= prevBound {
					t.Errorf("%s child %q: le %q not increasing", fam, key, le)
				}
				if b.value < prevCum {
					t.Errorf("%s child %q: bucket %q count %v < previous %v (not cumulative)",
						fam, key, le, b.value, prevCum)
				}
				prevBound, prevCum = bound, b.value
				if i == len(bs)-1 && le != "+Inf" {
					t.Errorf("%s child %q: last bucket le=%q, want +Inf", fam, key, le)
				}
			}
			cnt, ok := counts[key]
			if !ok {
				t.Errorf("%s child %q: no _count sample", fam, key)
			} else if inf := bs[len(bs)-1].value; inf != cnt {
				t.Errorf("%s child %q: +Inf bucket %v != _count %v", fam, key, inf, cnt)
			}
			if _, ok := sums[key]; !ok {
				t.Errorf("%s child %q: no _sum sample", fam, key)
			}
		}
	}
}

func childValues(t *testing.T, doc *promDoc, name string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, s := range doc.find(name) {
		out[labelSetKey(s)] = s.value
	}
	return out
}

// get performs a GET against the handler.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func scrape(t *testing.T, h http.Handler) *promDoc {
	t.Helper()
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	doc := parseExposition(t, rec.Body.String())
	checkHistograms(t, doc)
	return doc
}

func statsOf(t *testing.T, h http.Handler) statsResponse {
	t.Helper()
	rec := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d: %s", rec.Code, rec.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMetricsExposition drives a scripted workload — single and batch
// searches, kNN, all three mutations — then scrapes /metrics and checks the
// document is well-formed and numerically consistent with /stats.
func TestMetricsExposition(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.Handler()

	for _, q := range qs[:4] {
		if rec := postSearch(t, h, map[string]any{"query": q, "theta": 0.2}); rec.Code != http.StatusOK {
			t.Fatalf("search status %d: %s", rec.Code, rec.Body)
		}
	}
	if rec := postSearch(t, h, map[string]any{"queries": qs[4:8], "theta": 0.15}); rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if rec := postSearch(t, h, map[string]any{
		"queries": qs[:2], "thetas": []float64{0.1, 0.3},
	}); rec.Code != http.StatusOK {
		t.Fatalf("mixed batch status %d: %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/knn", `{"query":[1,2,3,4,5,6,7,8,9,10],"n":3}`); rec.Code != http.StatusOK {
		t.Fatalf("knn status %d: %s", rec.Code, rec.Body)
	}
	rec := post(t, h, "/insert", `{"ranking":[901,902,903,904,905,906,907,908,909,910]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/update", `{"id":400,"ranking":[911,912,913,914,915,916,917,918,919,920]}`); rec.Code != http.StatusOK {
		t.Fatalf("update status %d: %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/delete", `{"id":400}`); rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body)
	}

	st := statsOf(t, h)
	doc := scrape(t, h)

	intVal := func(name string, labels map[string]string) float64 {
		return doc.one(t, name, labels).value
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"topkserve_ready", nil, 1},
		{"topkserve_queries_total", nil, float64(st.Queries)},
		{"topkserve_knn_queries_total", nil, float64(st.KNNQueries)},
		{"topkserve_batches_total", nil, float64(st.Batches)},
		{"topkserve_mutations_total", nil, float64(st.Mutations)},
		{"topkserve_collection_size", nil, float64(st.N)},
		{"topkserve_collection_k", nil, float64(st.K)},
		{"topkserve_tombstones", nil, float64(st.Tombstones)},
	}
	for _, c := range checks {
		if got := intVal(c.name, c.labels); got != c.want {
			t.Errorf("%s%v = %v, want %v (from /stats)", c.name, c.labels, got, c.want)
		}
	}
	if st.Queries == 0 || st.Mutations != 3 || st.KNNQueries != 1 {
		t.Fatalf("workload not reflected in /stats: %+v", st)
	}

	// A collection is one index: no shard, fan-out or merge family is left.
	for _, family := range []string{"topkserve_shards", "topkserve_shard_len", "topkserve_shard_distance_calls_total",
		"topkserve_shard_query_duration_seconds_count", "topkserve_fanout_duration_seconds_count", "topkserve_merge_duration_seconds_count"} {
		if got := doc.find(family); len(got) != 0 {
			t.Errorf("/metrics still exports %s: %+v", family, got)
		}
	}

	// The HTTP layer counted this test's own requests.
	if got := doc.one(t, "topkserve_http_requests_total",
		map[string]string{"route": "/search", "code": "200"}).value; got != 6 {
		t.Errorf("http_requests_total{/search,200} = %v, want 6", got)
	}
	if got := doc.one(t, "topkserve_http_request_duration_seconds_count",
		map[string]string{"route": "/search"}).value; got != 6 {
		t.Errorf("http_request_duration_seconds_count{/search} = %v, want 6", got)
	}
	// The scrape itself is instrumented, so it sees exactly itself in flight.
	if got := doc.one(t, "topkserve_http_requests_in_flight", nil).value; got != 1 {
		t.Errorf("in-flight gauge = %v during scrape, want 1 (the scrape itself)", got)
	}

	// Runtime stats are present.
	if doc.one(t, "go_goroutines", nil).value <= 0 {
		t.Error("go_goroutines missing or nonpositive")
	}

	// A failing request shows up in the error counter.
	if rec := post(t, h, "/search", `{`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed search status %d", rec.Code)
	}
	// So does a request no route matches, on the single "other" label.
	if rec := get(t, h, "/no/such/path"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", rec.Code)
	}
	doc = scrape(t, h)
	if got := doc.one(t, "topkserve_http_errors_total",
		map[string]string{"route": "/search", "code": "400"}).value; got != 1 {
		t.Errorf("http_errors_total{/search,400} = %v, want 1", got)
	}
	if got := doc.one(t, "topkserve_http_requests_total",
		map[string]string{"route": "other", "code": "404"}).value; got != 1 {
		t.Errorf("http_requests_total{other,404} = %v, want 1", got)
	}
	checkHTTPFamilies(t, doc)
}

// checkHTTPFamilies holds the HTTP families to one set of counts: every
// error sample is a request sample with a status ≥ 400 and the same value,
// and each route's latency histogram observed exactly its requests.
func checkHTTPFamilies(t *testing.T, doc *promDoc) {
	t.Helper()
	errs := make(map[string]float64) // route,code -> count
	for _, s := range doc.find("topkserve_http_errors_total") {
		if code, err := strconv.Atoi(s.labels["code"]); err != nil || code < 400 {
			t.Errorf("http_errors_total sample with code %q", s.labels["code"])
		}
		errs[labelSetKey(s)] = s.value
	}
	perRoute := make(map[string]float64)
	for _, s := range doc.find("topkserve_http_requests_total") {
		perRoute[s.labels["route"]] += s.value
		code, _ := strconv.Atoi(s.labels["code"])
		got, ok := errs[labelSetKey(s)]
		if ok != (code >= 400) || (ok && got != s.value) {
			t.Errorf("http_requests_total%v = %v, http_errors_total has %v (present %v)", s.labels, s.value, got, ok)
		}
		delete(errs, labelSetKey(s))
	}
	for key := range errs {
		t.Errorf("http_errors_total{%s} has no http_requests_total sample", key)
	}
	counts := make(map[string]float64)
	for _, s := range doc.find("topkserve_http_request_duration_seconds_count") {
		counts[s.labels["route"]] = s.value
	}
	if len(counts) != len(perRoute) {
		t.Errorf("latency histograms for %d routes, requests for %d", len(counts), len(perRoute))
	}
	for route, n := range perRoute {
		if counts[route] != n {
			t.Errorf("route %s: duration _count %v, request samples sum to %v", route, counts[route], n)
		}
	}
}

// TestMetricsHybridPlanner checks that the hybrid kind, whose every query the
// inverted index answers, exports no planner series and /stats no planner
// section, while the query and compaction series every kind has are there.
func TestMetricsHybridPlanner(t *testing.T) {
	cfg := dataset.NYTLike(300, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.Workload(rs, cfg, 8, 0.8, cfg.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	sh := newIndex(t, rs, "hybrid", 0)
	srv := newServer(sh, "hybrid")
	h := srv.routes()
	for _, q := range qs {
		if rec := postSearch(t, h, map[string]any{"query": q, "theta": 0.2}); rec.Code != http.StatusOK {
			t.Fatalf("search status %d: %s", rec.Code, rec.Body)
		}
	}

	if st := get(t, h, "/stats").Body.String(); strings.Contains(st, `"planner"`) {
		t.Fatalf("hybrid /stats still has a planner section: %s", st)
	}
	if strings.Contains(get(t, h, "/metrics").Body.String(), "topkserve_planner_") {
		t.Error("/metrics still exports a topkserve_planner_ family")
	}
	doc := scrape(t, h)
	if got := doc.one(t, "topkserve_queries_total", nil).value; got != float64(len(qs)) {
		t.Errorf("topkserve_queries_total = %v, want %d", got, len(qs))
	}
	// The compaction series exist (zero so far).
	if doc.one(t, "topkserve_epoch_rebuilds_total", nil).value != 0 {
		t.Error("rebuilds counted without any mutations")
	}
}

// TestReadyz checks the readiness lifecycle: a server without an index
// refuses index-backed routes with 503 + Retry-After while /healthz stays
// 200 (pure liveness) and /metrics reports ready=0; install flips all of it.
func TestReadyz(t *testing.T) {
	srv := newServer(nil, "inverted-drop")
	h := srv.routes()

	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz while building: %d", rec.Code)
	}
	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while building: %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("/readyz 503 without Retry-After")
	}
	if rec := postSearch(t, h, map[string]any{"query": []uint32{1, 2, 3}, "theta": 0.1}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/search while building: %d, want 503", rec.Code)
	}
	if rec := get(t, h, "/stats"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/stats while building: %d, want 503", rec.Code)
	}
	doc := scrape(t, h)
	if doc.one(t, "topkserve_ready", nil).value != 0 {
		t.Error("topkserve_ready != 0 before install")
	}
	if got := doc.find("topkserve_queries_total"); len(got) != 0 {
		t.Errorf("index collectors emitted before install: %+v", got)
	}
	// The HTTP families are rendered during bootstrap too: the held search is
	// a 503 on its route, and the scrape sees itself in flight.
	if got := doc.one(t, "topkserve_http_errors_total", map[string]string{"route": "/search", "code": "503"}).value; got != 1 {
		t.Errorf("http_errors_total{/search,503} = %v during bootstrap, want 1", got)
	}
	if got := doc.one(t, "topkserve_http_requests_in_flight", nil).value; got != 1 {
		t.Errorf("in-flight = %v during bootstrap scrape, want 1", got)
	}
	checkHTTPFamilies(t, doc)

	cfg := dataset.NYTLike(100, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := newIndex(t, rs, "inverted-drop", 0)
	srv.install(sh)

	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after install: %d", rec.Code)
	}
	if rec := postSearch(t, h, map[string]any{"query": rs[0], "theta": 0.1}); rec.Code != http.StatusOK {
		t.Fatalf("/search after install: %d: %s", rec.Code, rec.Body)
	}
	doc = scrape(t, h)
	if doc.one(t, "topkserve_ready", nil).value != 1 {
		t.Error("topkserve_ready != 1 after install")
	}
}

// TestHTTPMetricsUnderConcurrentScrapes sends requests from many goroutines
// through Handler() while another scrapes /metrics (run it under -race): the
// final scrape counts every request exactly once, on its route and status.
func TestHTTPMetricsUnderConcurrentScrapes(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.Handler()
	body, err := json.Marshal(map[string]any{"query": qs[0], "theta": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				var req *http.Request
				switch j % 3 {
				case 0:
					req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
				case 1:
					req = httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
				default:
					req = httptest.NewRequest(http.MethodGet, "/nowhere", nil)
				}
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("concurrent scrape status %d", rec.Code)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	scrapes := <-scraped

	doc := scrape(t, h)
	checkHTTPFamilies(t, doc)
	for _, c := range []struct {
		route, code string
		want        int
	}{
		{"/healthz", "200", workers * perWorker / 3},
		{"/search", "200", workers * perWorker / 3},
		{"other", "404", workers * perWorker / 3},
		{"/metrics", "200", scrapes},
	} {
		if got := doc.one(t, "topkserve_http_requests_total", map[string]string{"route": c.route, "code": c.code}).value; got != float64(c.want) {
			t.Errorf("http_requests_total{%s,%s} = %v, want %d", c.route, c.code, got, c.want)
		}
	}
	if got := doc.one(t, "topkserve_http_requests_in_flight", nil).value; got != 1 {
		t.Errorf("in-flight = %v after the workers finished, want 1 (the scrape)", got)
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ header http.Header }

func (d discardWriter) Header() http.Header         { return d.header }
func (d discardWriter) WriteHeader(int)             {}
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkInstrument measures what a cheap route costs end to end through
// Handler(): routing, the trace, the HTTP accounting and /healthz's reply.
func BenchmarkInstrument(b *testing.B) {
	h := newServer(nil, "hybrid").Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "bench")
	w := discardWriter{header: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		h.ServeHTTP(w, req)
	}
}

// TestRequestIDAndTraceRing checks X-Request-ID propagation and the
// /debug/trace ring contents.
func TestRequestIDAndTraceRing(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()

	body, err := json.Marshal(map[string]any{"query": qs[0], "theta": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-supplied-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("request id not propagated: %q", got)
	}

	// Without a client id, the server mints one.
	rec2 := postSearch(t, h, map[string]any{"query": qs[1], "theta": 0.2})
	if minted := rec2.Header().Get("X-Request-ID"); len(minted) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", minted)
	}

	rec = get(t, h, "/debug/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", rec.Code)
	}
	var dump struct {
		Traces []requestTrace `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	// Most recent first: [0] is the second search, [1] the first.
	if len(dump.Traces) != 2 {
		t.Fatalf("trace ring has %d entries, want 2", len(dump.Traces))
	}
	tr := dump.Traces[1]
	if tr.ID != "client-supplied-42" || tr.Route != "/search" || tr.Status != http.StatusOK {
		t.Fatalf("trace mismatch: %+v", tr)
	}
	if tr.Queries != 1 || tr.Theta != 0.2 || tr.K != 10 {
		t.Fatalf("trace query shape: %+v", tr)
	}
	if tr.TotalMicros <= 0 {
		t.Fatal("trace without total time")
	}
	stages := make(map[string]bool)
	for _, st := range tr.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"parse", "admit", "cache", "search", "respond"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, tr.Stages)
		}
	}
}

// TestSlowQueryLog checks that requests over the threshold emit one JSON
// line reconstructable into the trace.
func TestSlowQueryLog(t *testing.T) {
	srv, _, qs := testServer(t)
	var buf bytes.Buffer
	srv.tracer.slowQuery = time.Nanosecond // everything is slow
	srv.tracer.slowLog = &buf
	h := srv.routes()
	if rec := postSearch(t, h, map[string]any{"query": qs[0], "theta": 0.2}); rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}
	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, "slow-query ") {
		t.Fatalf("slow-query log line %q", line)
	}
	var tr requestTrace
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "slow-query ")), &tr); err != nil {
		t.Fatalf("slow-query payload not JSON: %v (%q)", err, line)
	}
	if tr.Route != "/search" || tr.Status != http.StatusOK || len(tr.Stages) == 0 {
		t.Fatalf("slow-query trace: %+v", tr)
	}
}

// TestKNNTraceStagesAndAttribution checks that a /knn request is traced like
// a single /search — cache, search and respond stages instead of one opaque
// block — and that the native posting-list KNN reports zero distance calls; a
// cache hit reports no search stage at all.
func TestKNNTraceStagesAndAttribution(t *testing.T) {
	cfg := dataset.NYTLike(400, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastTrace := func(h http.Handler) requestTrace {
		t.Helper()
		var dump struct {
			Traces []requestTrace `json:"traces"`
		}
		if err := json.Unmarshal(get(t, h, "/debug/trace").Body.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		return dump.Traces[0]
	}
	stageNames := func(tr requestTrace) string {
		var names []string
		for _, st := range tr.Stages {
			names = append(names, st.Name)
		}
		return strings.Join(names, " ")
	}
	srv := newServer(newIndex(t, rs, "hybrid", 0), "hybrid")
	srv.cache = qcache.New(64)
	h := srv.routes()
	body := map[string]any{"query": rs[3], "n": 5}
	if rec := postJSON(t, h, "/knn", body); rec.Code != http.StatusOK {
		t.Fatalf("knn status %d: %s", rec.Code, rec.Body)
	}
	tr := lastTrace(h)
	if got, want := stageNames(tr), "parse admit cache search respond"; got != want {
		t.Errorf("stages %q, want %q", got, want)
	}
	if tr.DistanceCalls != 0 {
		t.Errorf("native KNN traced with %d distance calls", tr.DistanceCalls)
	}
	// The repeat is a cache hit: no search stage.
	if rec := postJSON(t, h, "/knn", body); rec.Code != http.StatusOK {
		t.Fatalf("knn status %d: %s", rec.Code, rec.Body)
	}
	if got := stageNames(lastTrace(h)); got != "parse admit cache respond" {
		t.Errorf("cached knn traced as %q", got)
	}
	// A single /search records the cache probe the same way — its own stage
	// on miss and hit — so the stages never add up to more than the request.
	search := map[string]any{"query": rs[3], "theta": 0.2}
	for _, want := range []string{"parse admit cache search respond", "parse admit cache respond"} {
		if rec := postSearch(t, h, search); rec.Code != http.StatusOK {
			t.Fatalf("search status %d: %s", rec.Code, rec.Body)
		}
		tr := lastTrace(h)
		if got := stageNames(tr); got != want {
			t.Errorf("search stages %q, want %q", got, want)
		}
		sum := 0.0
		for _, st := range tr.Stages {
			sum += st.Micros
		}
		if sum > tr.TotalMicros {
			t.Errorf("search stages sum to %.1fµs of a %.1fµs request: %v", sum, tr.TotalMicros, tr.Stages)
		}
	}
}

// TestBatchTraceAttribution checks that a /search batch is traced like a
// single miss: one search stage and the batch's distance calls.
func TestBatchTraceAttribution(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	if rec := postSearch(t, h, map[string]any{"queries": qs, "theta": 0.2}); rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	var dump struct {
		Traces []requestTrace `json:"traces"`
	}
	if err := json.Unmarshal(get(t, h, "/debug/trace").Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	tr := dump.Traces[0]
	var names []string
	for _, st := range tr.Stages {
		names = append(names, st.Name)
	}
	if got, want := strings.Join(names, " "), "parse admit search respond"; got != want {
		t.Errorf("batch stages %q, want %q", got, want)
	}
	if tr.DistanceCalls == 0 || tr.Queries != len(qs) {
		t.Errorf("batch trace with %d distance calls over %d queries: %+v", tr.DistanceCalls, tr.Queries, tr)
	}
}

// TestStandaloneKindTraceAttribution checks that tracing is not a hybrid
// privilege: a server over a plain inverted kind traces /search and /knn
// misses with the query's own distance calls — F&V validates its
// candidates, the native posting-list KNN evaluates none.
func TestStandaloneKindTraceAttribution(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(400, 10))
	if err != nil {
		t.Fatal(err)
	}
	sh := newIndex(t, rs, "inverted", 0)
	h := newServer(sh, "inverted").routes()
	for path, c := range map[string]struct {
		body any
		dfc  bool
	}{
		"/search": {map[string]any{"query": rs[3], "theta": 0.2}, true},
		"/knn":    {map[string]any{"query": rs[3], "n": 5}, false},
	} {
		if rec := postJSON(t, h, path, c.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		var dump struct {
			Traces []requestTrace `json:"traces"`
		}
		if err := json.Unmarshal(get(t, h, "/debug/trace").Body.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		tr := dump.Traces[0]
		if tr.Route != path || (tr.DistanceCalls > 0) != c.dfc {
			t.Errorf("%s: traced with %d distance calls, want distance calls %v (%+v)", path, tr.DistanceCalls, c.dfc, tr)
		}
	}
}
