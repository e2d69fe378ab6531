package telemetry

import (
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	var r Registry
	r.Collect(func(w *Writer) {
		w.Counter("test_ops_total", "Operations.", "", 42)
		w.Gauge("test_temperature", "Degrees.", "", 1.25)
	})
	out := render(t, &r)
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 42\n",
		"# TYPE test_temperature gauge\n",
		"test_temperature 1.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelsEscaping(t *testing.T) {
	var r Registry
	r.Collect(func(w *Writer) {
		w.Counter("test_requests_total", "Requests.", Labels("route", "/search", "code", "200"), 3)
		w.Counter("test_requests_total", "", Labels("route", "/search", "code", "400"), 1)
		w.Counter("test_requests_total", "", Labels("route", `/we"ird\path`+"\n", "code", "200"), 1)
	})
	out := render(t, &r)
	for _, want := range []string{
		`test_requests_total{route="/search",code="200"} 3`,
		`test_requests_total{route="/search",code="400"} 1`,
		`test_requests_total{route="/we\"ird\\path\n",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE test_requests_total counter") != 1 {
		t.Errorf("family header not deduped:\n%s", out)
	}
	if got := Labels(); got != "" {
		t.Errorf("Labels() = %q, want empty", got)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.4})
	for _, v := range []float64{0.05, 0.1, 0.15, 0.3, 9} {
		h.Observe(v)
	}
	var r Registry
	r.Collect(func(w *Writer) {
		w.Histogram("test_latency_seconds", "Latency.", "", h.Snapshot())
		w.Histogram("test_labeled_seconds", "Labeled.", Labels("route", "/x"), h.Snapshot())
	})
	out := render(t, &r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1
		`test_latency_seconds_bucket{le="0.2"} 3`,
		`test_latency_seconds_bucket{le="0.4"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
		`test_labeled_seconds_bucket{route="/x",le="+Inf"} 5`,
		`test_labeled_seconds_sum{route="/x"} 9.6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	s := h.Snapshot()
	if s.Count != 5 || math.Abs(s.Sum-9.6) > 1e-9 {
		t.Fatalf("snapshot count=%d sum=%v", s.Count, s.Sum)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	// 10 observations in (10, 20].
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	s := h.Snapshot()
	q := s.Quantile(0.5)
	if q <= 10 || q >= 20 {
		t.Fatalf("median %v outside winning bucket (10, 20)", q)
	}
	if math.Abs(q-15) > 5 {
		t.Fatalf("median %v, want near bucket midpoint", q)
	}
	// Overflow observations are credited to the last finite bound.
	h2 := NewHistogram([]float64{10})
	h2.Observe(99)
	if got := h2.Snapshot().Quantile(0.99); got != 10 {
		t.Fatalf("overflow quantile %v, want 10", got)
	}
}

// TestCollectorsShareOneDocument: collectors run in registration order
// against one Writer, so a family two collectors write gets one header, and
// the first write error is what WritePrometheus returns.
func TestCollectorsShareOneDocument(t *testing.T) {
	var r Registry
	r.Collect(func(w *Writer) {
		w.Gauge("test_first", "Written first.", "", 7)
		w.Counter("test_collected_total", "From two collectors.", Labels("shard", "0"), 11)
	})
	r.Collect(func(w *Writer) {
		w.Counter("test_collected_total", "", Labels("shard", "3"), 12)
		w.Histogram("test_collected_seconds", "Hist from a collector.", "",
			HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{2, 1}, Count: 3, Sum: 4.5})
	})
	out := render(t, &r)
	for _, want := range []string{
		`test_collected_total{shard="0"} 11`,
		`test_collected_total{shard="3"} 12`,
		`test_collected_seconds_bucket{le="1"} 2`,
		`test_collected_seconds_bucket{le="+Inf"} 3`,
		"test_collected_seconds_sum 4.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE test_collected_total counter") != 1 {
		t.Errorf("family header not deduped across collectors:\n%s", out)
	}
	if strings.Index(out, "test_first 7") > strings.Index(out, "test_collected_seconds_sum") {
		t.Errorf("collectors ran out of registration order:\n%s", out)
	}

	if err := r.WritePrometheus(failingWriter{}); !errors.Is(err, errWrite) {
		t.Fatalf("WritePrometheus on a failing writer = %v, want %v", err, errWrite)
	}
}

var errWrite = errors.New("write refused")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestConcurrentInstruments observes one histogram from eight goroutines
// while another scrapes it; under -race nothing may be torn or lost.
func TestConcurrentInstruments(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	var r Registry
	r.Collect(func(w *Writer) { w.Histogram("test_h", "Concurrent.", "", h.Snapshot()) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 300))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("histogram count %d, want 8000", s.Count)
	}
	if out := render(t, &r); !strings.Contains(out, `test_h_bucket{le="+Inf"} 8000`) {
		t.Fatalf("final scrape:\n%s", out)
	}
}

// TestFamilyTypeConflictPanics: one name written as two types is a
// programming error, caught at the first scrape that does it.
func TestFamilyTypeConflictPanics(t *testing.T) {
	var r Registry
	r.Collect(func(w *Writer) {
		w.Counter("test_dup_total", "", "", 1)
		w.Gauge("test_dup_total", "", "", 1)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("family written as counter and gauge did not panic")
		}
	}()
	render(t, &r)
}
