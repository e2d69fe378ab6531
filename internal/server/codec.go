// The query routes' JSON codec: a strict scanner for plain /search and /knn
// bodies, and replies appended into a pooled buffer as json.Encoder renders them.
package server

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"topk/internal/ranking"
)

// bufPool recycles request bodies and replies; a buffer grown past 1 MiB is
// dropped, so one large request does not pin its memory.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(p *[]byte) {
	if cap(*p) <= 1<<20 {
		bufPool.Put(p)
	}
}

// scanQuery fills v, a zero *searchRequest or *knnRequest, from body's plain
// form: exact lower-case keys, each at most once, unsigned numbers of at
// most 15 digits and no exponent, no trailing data. There encoding/json
// yields the same value; on anything else scanQuery reports false, and v
// may hold part of the body: decodeStrict, which then decodes the body into
// v, sets every field the body names, the fields scanQuery filled among them.
func scanQuery(body []byte, v any) bool {
	s := queryScanner{b: body}
	var ok bool
	switch req := v.(type) {
	case *searchRequest:
		ok = s.object([]string{"query", "queries", "theta", "thetas"}, func(key string) (ok bool) {
			switch key {
			case "query":
				req.Query, ok = s.ranking()
			case "queries": // one item slice for all of them
				arrays, n := s.shape(2)
				s.items = make([]ranking.Item, 0, n)
				req.Queries, ok = list(&s, arrays, s.ranking)
			case "theta":
				req.Theta, ok = s.float()
			case "thetas":
				_, n := s.shape(1)
				req.Thetas, ok = list(&s, n, s.float)
			}
			return ok
		})
	case *knnRequest:
		ok = s.object([]string{"query", "n"}, func(key string) (ok bool) {
			if key == "query" {
				req.Query, ok = s.ranking()
				return ok
			}
			m, frac, ok := s.number()
			req.N = int(m)
			return ok && frac == 0
		})
	}
	s.ws()
	return ok && s.i == len(s.b)
}

type queryScanner struct {
	b     []byte
	i     int
	items []ranking.Item
}

func (s *queryScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// eat consumes c after optional whitespace, reporting whether it was there.
func (s *queryScanner) eat(c byte) bool {
	s.ws()
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// seq parses open, zero or more comma-separated elements, close.
func (s *queryScanner) seq(open, close byte, elem func() bool) bool {
	ok := s.eat(open)
	for first := true; ok && !s.eat(close); first = false {
		ok = (first || s.eat(',')) && elem()
	}
	return ok
}

// list parses an array of elem into one allocation of room n.
func list[T any](s *queryScanner, n int, elem func() (T, bool)) ([]T, bool) {
	out := make([]T, 0, n)
	ok := s.seq('[', ']', func() bool {
		v, ok := elem()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// object parses an object whose keys are among keys, each at most once,
// handing each member's value to field.
func (s *queryScanner) object(keys []string, field func(key string) bool) bool {
	var seen uint
	return s.seq('{', '}', func() bool {
		if !s.eat('"') {
			return false
		}
		key, rest, _ := bytes.Cut(s.b[s.i:], []byte{'"'}) // unclosed: no ':' follows
		s.i = len(s.b) - len(rest)
		for i, k := range keys {
			if string(key) == k && seen&(1<<i) == 0 && s.eat(':') {
				seen |= 1 << i
				return field(k)
			}
		}
		return false
	})
}

// number parses (0|[1-9][0-9]*)(\.[0-9]+)? of at most 15 digits, whose
// value is exactly m / 10^frac.
func (s *queryScanner) number() (m uint64, frac int, ok bool) {
	s.ws()
	m, n := s.digits(0)
	if n == 0 || n > 1 && s.b[s.i-n] == '0' {
		return m, 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		m, frac = s.digits(m)
	}
	return m, frac, n+frac <= 15 && s.b[s.i-1] != '.' // a dot needs digits after it
}

// digits consumes a run of n decimal digits, appending them to m.
func (s *queryScanner) digits(m uint64) (_ uint64, n int) {
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i, n = s.i+1, n+1 {
		m = m*10 + uint64(s.b[s.i]-'0')
	}
	return m, n
}

// float is strconv.ParseFloat's exact fast path: m < 10^15 < 2^53 and
// 10^frac are exact float64s, so their quotient is correctly rounded.
func (s *queryScanner) float() (float64, bool) {
	m, frac, ok := s.number()
	return float64(m) / math.Pow10(frac), ok
}

// shape counts, without consuming it, the arrays depth deep in the array at
// s.i and the numbers they hold, so a list is reserved at what its scan
// builds. An array holding a string or a literal, or left open, counts 0:
// nothing is reserved from the bytes of a body the scan will not take.
func (s *queryScanner) shape(depth int) (arrays, numbers int) {
	s.ws()
	d := 0
	for i := s.i; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '[':
			if d++; d == depth {
				arrays++
			}
		case c == ']':
			if d--; d == 0 {
				return arrays, numbers
			}
		case '0' <= c && c <= '9' && d == depth:
			if p := s.b[i-1]; p != '.' && (p < '0' || p > '9') {
				numbers++
			}
		case c != ',' && c != '.' && c != ' ' && c != '\t' && c != '\n' && c != '\r':
			return 0, 0
		}
	}
	return 0, 0
}

// ranking parses an array of items onto s.items, returning its window; a
// lone query, with no list reserved for it, reserves its own items.
func (s *queryScanner) ranking() (ranking.Ranking, bool) {
	if s.items == nil {
		_, n := s.shape(1)
		s.items = make([]ranking.Item, 0, n)
	}
	start := len(s.items)
	ok := s.seq('[', ']', func() bool {
		m, frac, ok := s.number()
		s.items = append(s.items, ranking.Item(m))
		return ok && frac == 0 && m <= math.MaxUint32
	})
	return s.items[start:len(s.items):len(s.items)], ok
}

// appendAnswer renders the "count" and "results" members of one answer at a
// collection's k (0 when empty), normDist from norm = normTable(k). normDist
// is formatted as encoding/json formats a float64 in [1e-6, 1e21): d/dmax is
// 0 or ≥ 1/65280 at k ≤ 255.
func appendAnswer(b []byte, k int, norm []string, rs []ranking.Result) []byte {
	dmax := float64(ranking.MaxDistance(max(k, 1)))
	b = strconv.AppendInt(append(b, `"count":`...), int64(len(rs)), 10)
	b = append(b, `,"results":[`...)
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(b, `{"id":`...), uint64(r.ID), 10)
		b = strconv.AppendInt(append(b, `,"dist":`...), int64(r.Dist), 10)
		b = append(b, `,"normDist":`...)
		if h := uint(r.Dist) / 2; r.Dist&1 == 0 && h < uint(len(norm)) {
			b = append(b, norm[h]...)
		} else { // odd or out of range: no Footrule distance at this k
			b = strconv.AppendFloat(b, float64(r.Dist)/dmax, 'f', -1, 64)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

var normTables [ranking.MaxK + 1]atomic.Pointer[[]string]

// normTable returns the normDist rendering of every even distance 2h ≤ dmax
// at k, by h (every Footrule distance is even), memoized on the first reply
// at that k (racing builders store equal tables); nil past ranking.MaxK.
func normTable(k int) []string {
	if k >= len(normTables) {
		return nil
	}
	if t := normTables[k].Load(); t != nil {
		return *t
	}
	dmax := ranking.MaxDistance(max(k, 1))
	t := make([]string, 0, dmax/2+1)
	for d := 0; d <= dmax; d += 2 {
		t = append(t, strconv.FormatFloat(float64(d)/float64(dmax), 'f', -1, 64))
	}
	normTables[k].Store(&t)
	return t
}

// appendSearch renders a searchResponse: one answer per query for a batch,
// else the single answer, its members omitted when it is empty.
func appendSearch(b []byte, k int, tookMicros int64, batch bool, answers [][]ranking.Result) []byte {
	b = strconv.AppendInt(append(b, `{"tookMicros":`...), tookMicros, 10)
	norm := normTable(k)
	switch {
	case batch:
		b = append(b, `,"answers":[`...)
		for i, a := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendAnswer(append(b, '{'), k, norm, a), '}')
		}
		b = append(b, ']')
	case len(answers[0]) > 0:
		b = appendAnswer(append(b, ','), k, norm, answers[0])
	}
	return append(b, "}\n"...)
}

// appendKNN renders a knnResponse.
func appendKNN(b []byte, k int, tookMicros int64, rs []ranking.Result) []byte {
	b = strconv.AppendInt(append(b, `{"tookMicros":`...), tookMicros, 10)
	return append(appendAnswer(append(b, ','), k, normTable(k), rs), "}\n"...)
}

// writeReply renders a 200 reply into a pooled buffer and sends it as one
// Write with Content-Length.
func writeReply(w http.ResponseWriter, render func([]byte) []byte) {
	p := bufPool.Get().(*[]byte)
	defer putBuf(p)
	*p = render((*p)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*p)))
	w.Write(*p) // an implicit 200
}
