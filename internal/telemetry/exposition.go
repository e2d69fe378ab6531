package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Writer renders Prometheus text-exposition lines. Every collector of a
// scrape shares one Writer, so # HELP/# TYPE headers are emitted exactly
// once per family no matter how many samples it gets. The first write error
// latches; subsequent writes are no-ops and WritePrometheus returns it.
type Writer struct {
	w     io.Writer
	typed map[string]string // family name -> emitted type
	err   error
}

// family emits the # HELP/# TYPE header once per name. A family written
// twice with different types is a programming error and panics.
func (w *Writer) family(name, help, typ string) {
	if prev, ok := w.typed[name]; ok {
		if prev != typ {
			panic(fmt.Sprintf("telemetry: family %q written as %s and %s", name, prev, typ))
		}
		return
	}
	w.typed[name] = typ
	if help != "" {
		w.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	w.printf("# TYPE %s %s\n", name, typ)
}

// sample emits one sample line. labels is a pre-rendered block without
// braces ("" for none) as produced by Labels.
func (w *Writer) sample(name, labels string, v float64) {
	if labels == "" {
		w.printf("%s %s\n", name, formatValue(v))
		return
	}
	w.printf("%s{%s} %s\n", name, labels, formatValue(v))
}

// Counter writes one counter sample, emitting the family header on first
// use of the name.
func (w *Writer) Counter(name, help, labels string, v float64) {
	w.family(name, help, "counter")
	w.sample(name, labels, v)
}

// Gauge writes one gauge sample.
func (w *Writer) Gauge(name, help, labels string, v float64) {
	w.family(name, help, "gauge")
	w.sample(name, labels, v)
}

// Histogram writes one histogram child: cumulative le-buckets ending in
// +Inf, then _sum and _count.
func (w *Writer) Histogram(name, help, labels string, s HistogramSnapshot) {
	w.family(name, help, "histogram")
	var cum uint64
	for i, bound := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		w.sample(name+"_bucket", joinLabels(labels, `le="`+formatValue(bound)+`"`), float64(cum))
	}
	w.sample(name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(s.Count))
	w.sample(name+"_sum", labels, s.Sum)
	w.sample(name+"_count", labels, float64(s.Count))
}

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	_, w.err = fmt.Fprintf(w.w, format, args...)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatValue renders a sample value: integers without a fraction,
// everything else in shortest round-trip form.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
