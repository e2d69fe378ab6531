package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"topk/internal/ranking"
)

// codecSeeds are the fuzz seeds: the plain bodies the scanner takes, then
// the quirks it must leave to encoding/json.
var codecSeeds = []string{
	`{"query":[1,2,3],"theta":0.1}`,
	`{"queries":[[1,2,3],[4,5,6]],"theta":0.25}`,
	`{"queries":[[1,2,3],[4,5,6]],"thetas":[0.1,0.2]}`,
	`{"query":[1,2,3],"n":5}`,
	" { \"query\" : [ 0 , 4294967295 ] ,\n\t\"n\" : 3 } \r\n",
	`{}`, `{"query":[]}`, `{"queries":[]}`, `{"thetas":[]}`, `{"theta":0}`, `{"theta":0.5}`,
	`{"theta":0.123456789012345}`, `{"n":999999999999999}`, `{"theta":-0}`, `{"n":-3}`,
	`{"Query":[1,2,3],"theta":0.1}`, `{"query":[1,2,3]}`, `{"query":[1],"query":[2]}`,
	`{"n":1,"n":2}`, `{"query":null}`, `null`, `{"theta":1e1}`, `{"n":1e1}`, `{"theta":01}`,
	`{"query":[01]}`, `{"query":[4294967296]}`, `{"n":99999999999999999999}`,
	`{"theta":0.1234567890123456}`, `{"theta":9.013991202520403}`, `{"theta":0.9438594918311721}`, `{"theta":0.1} x`, `{"theta":0.1}{}`, `{"bogus":1}`,
	`{"query":[-1]}`, `{"query":[1.0]}`, `{"theta":"0.1"}`, `{"theta":1.}`, `{"theta":.5}`,
	`{"query":[1,]}`, `{"query":[1 2]}`, `{"query":[1],}`, `{`, ``, `{"queries":[null]}`,
	`{"thetas":[null]}`, `{"n":-}`, `{"query":[1,2,3],"n":5,"theta":1}`,
}

// FuzzQueryDecode holds the scanner to encoding/json: whenever scanQuery
// accepts a body, decodeStrict accepts it too with a deeply equal value
// (nil versus empty slices included). When it declines, decodeStrict over
// what the scan left in the value answers as it does into a zero value.
func FuzzQueryDecode(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan[searchRequest](t, body)
		checkScan[knnRequest](t, body)
	})
}

func checkScan[T any](t *testing.T, body []byte) {
	var got, want T
	err := decodeStrict(body, &want)
	if !scanQuery(body, &got) {
		if gotErr := decodeStrict(body, &got); fmt.Sprint(gotErr) != fmt.Sprint(err) || err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q after a declined scan: %#v, %v; into a zero value: %#v, %v", got, body, got, gotErr, want, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%T: scanner accepted %q, encoding/json: %v", got, body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q: scanner %#v, encoding/json %#v", got, body, got, want)
	}
}

func encodeRef(v any) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

// refResults is the reference rendering of results at k.
func refResults(rs []ranking.Result, k int) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{ID: r.ID, Dist: r.Dist, NormDist: float64(r.Dist) / float64(ranking.MaxDistance(k))}
	}
	return out
}

// TestReplyMatchesEncoder: the appended /search single, /search batch and
// /knn replies equal json.Encoder's rendering of the reply structs byte for
// byte, at every distance of several k, the extreme ids, an empty
// single answer (count and results omitted) and empty batch answers.
func TestReplyMatchesEncoder(t *testing.T) {
	for _, k := range []int{1, 2, 10, 255} {
		var rs []ranking.Result
		for d := 0; d <= ranking.MaxDistance(k); d++ {
			rs = append(rs, ranking.Result{ID: ranking.ID(d * 7919), Dist: d})
		}
		rs[0].ID, rs[len(rs)-1].ID = 0, math.MaxUint32
		answers := [][]ranking.Result{rs, nil, rs[:1], {}}
		for _, a := range answers {
			want := encodeRef(searchResponse{TookMicros: 42, Count: len(a), Results: refResults(a, k)})
			if got := appendSearch(nil, k, 42, false, [][]ranking.Result{a}); !bytes.Equal(got, want) {
				t.Fatalf("k=%d single of %d: got\n%s\nwant\n%s", k, len(a), got, want)
			}
			want = encodeRef(knnResponse{TookMicros: 7, Count: len(a), Results: refResults(a, k)})
			if got := appendKNN(nil, k, 7, a); !bytes.Equal(got, want) {
				t.Fatalf("k=%d knn of %d: got\n%s\nwant\n%s", k, len(a), got, want)
			}
		}
		batch := searchResponse{TookMicros: 1 << 40}
		for _, a := range answers {
			batch.Answers = append(batch.Answers, answerJSON{Count: len(a), Results: refResults(a, k)})
		}
		if got, want := appendSearch(nil, k, 1<<40, true, answers), encodeRef(batch); !bytes.Equal(got, want) {
			t.Fatalf("k=%d batch: got\n%s\nwant\n%s", k, got, want)
		}
	}
}

// TestRepliesCarryContentLength: every reply of the three query routes
// carries a Content-Length equal to its body, and the body is what
// json.Encoder renders for the value it decodes to.
func TestRepliesCarryContentLength(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	q, _ := json.Marshal(qs[0])
	for _, c := range []struct {
		path, body string
		into       any
	}{
		{"/search", fmt.Sprintf(`{"query":%s,"theta":0.3}`, q), &searchResponse{}},
		{"/search", `{"query":[1,2,3,4,5,6,7,8,9,10],"theta":0}`, &searchResponse{}},
		{"/search", fmt.Sprintf(`{"queries":[%s,[1,2,3,4,5,6,7,8,9,10]],"theta":0.3}`, q), &searchResponse{}},
		{"/knn", fmt.Sprintf(`{"query":%s,"n":5}`, q), &knnResponse{}},
	} {
		rec := post(t, h, c.path, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.path, c.body, rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", c.path, cl, rec.Body.Len())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), c.into); err != nil {
			t.Fatal(err)
		}
		if want := encodeRef(reflect.ValueOf(c.into).Elem().Interface()); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: got\n%s\nwant\n%s", c.path, rec.Body, want)
		}
	}
}

// TestQueryErrorContract posts bodies the scanner declines to /search and
// /knn. A body encoding/json rejects must answer exactly the 400 that its
// decode error gives; a body it accepts (canon set) must answer as its
// plain equivalent does, which the scanner takes.
func TestQueryErrorContract(t *testing.T) {
	srv, _, qs := testServer(t)
	h := srv.routes()
	q, _ := json.Marshal(qs[0])
	q2, _ := json.Marshal(qs[1])
	f := strings.NewReplacer("$q", string(q), "$r", string(q2)).Replace
	took := regexp.MustCompile(`"tookMicros":\d+`)
	for _, c := range []struct{ path, body, canon string }{
		{"/search", `{"Query":$q,"theta":0.1}`, `{"query":$q,"theta":0.1}`},
		{"/search", `{"\u0071uery":$q,"theta":0.1}`, `{"query":$q,"theta":0.1}`},
		{"/search", `{"query":$r,"query":$q,"theta":0.1}`, `{"query":$q,"theta":0.1}`},
		{"/search", `{"query":null,"theta":0.1}`, `{"theta":0.1}`},
		{"/search", `{"query":$q,"theta":1e-1}`, `{"query":$q,"theta":0.1}`},
		{"/search", `{"queries":[$q,$r],"thetas":[1E-1,0.10000000000000000000]}`, `{"queries":[$q,$r],"thetas":[0.1,0.1]}`},
		{"/search", `{"query":$q,"theta":01}`, ""},
		{"/search", `{"query":[4294967296,1,2,3,4,5,6,7,8,9],"theta":0.1}`, ""},
		{"/search", `{"query":$q,"theta":0.1} x`, ""},
		{"/search", `{"query":$q,"theta":0.1}{}`, ""},
		{"/search", `{"query":$q,"theta":0.1,"bogus":1}`, ""},
		{"/search", `{"query":$q,"theta":"0.1"}`, ""},
		{"/search", `{"query":$q,"theta":0.1`, ""},
		{"/knn", `{"QUERY":$q,"n":3}`, `{"query":$q,"n":3}`},
		{"/knn", `{"query":$q,"n":3,"n":4}`, `{"query":$q,"n":4}`},
		{"/knn", `{"query":null,"n":3}`, `{"n":3}`},
		{"/knn", `{"query":$q,"n":1e1}`, ""},
		{"/knn", `{"query":$q,"n":3.0}`, ""},
		{"/knn", `{"query":$q,"n":3,"theta":0.1}`, ""},
		{"/knn", `{"query":$q,"n":3} ]`, ""},
		{"/knn", ``, ""},
	} {
		body := f(c.body)
		if scanQuery([]byte(body), &searchRequest{}) || scanQuery([]byte(body), &knnRequest{}) {
			t.Fatalf("scanner took quirk %s", body)
		}
		got := post(t, h, c.path, body)
		want := httptest.NewRecorder()
		if c.canon != "" {
			canon := f(c.canon)
			if !scanQuery([]byte(canon), &searchRequest{}) && !scanQuery([]byte(canon), &knnRequest{}) {
				t.Fatalf("scanner declined plain body %s", canon)
			}
			want = post(t, h, c.path, canon)
		} else {
			var err error
			if c.path == "/knn" {
				err = decodeStrict([]byte(body), &knnRequest{})
			} else {
				err = decodeStrict([]byte(body), &searchRequest{})
			}
			if err == nil {
				t.Fatalf("encoding/json accepted %s", body)
			}
			httpError(want, http.StatusBadRequest, "%v", err)
		}
		if got.Code != want.Code || !bytes.Equal(took.ReplaceAll(got.Body.Bytes(), nil), took.ReplaceAll(want.Body.Bytes(), nil)) {
			t.Fatalf("%s %s: %d %s, want %d %s", c.path, body, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestCodecAllocs pins the codec's allocation budget on a 64-member batch:
// the scan allocates the shared item slice, the query headers and the
// thetas; rendering the reply into a reused buffer allocates at most once.
func TestCodecAllocs(t *testing.T) {
	var body strings.Builder
	body.WriteString(`{"queries":[`)
	answers := make([][]ranking.Result, 64)
	for i := range answers {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d,2,3,4,5,6,7,8,9,10]", 100+i)
		for j := range 6 {
			answers[i] = append(answers[i], ranking.Result{ID: ranking.ID(1000 * j), Dist: 2 * j})
		}
	}
	body.WriteString(`],"thetas":[` + strings.Repeat("0.2,", 63) + "0.3]}")
	b := []byte(body.String())
	var req searchRequest
	if n := testing.AllocsPerRun(100, func() {
		req = searchRequest{}
		if !scanQuery(b, &req) {
			t.Fatal("scanner declined the batch")
		}
	}); n > 3 {
		t.Fatalf("scan: %v allocs, want ≤ 3", n)
	}
	var buf []byte // a reused buffer, as the pooled one is
	if n := testing.AllocsPerRun(100, func() {
		buf = appendSearch(buf[:0], 10, 100, true, answers)
	}); n > 1 {
		t.Fatalf("reply: %v allocs, want ≤ 1", n)
	}
}

// TestScanAllocBound: the scan sizes each list from the array it parses, so
// a body it declines reserves next to nothing, however many brackets or
// commas the rest of it holds. TotalAlloc is process-wide, so a goroutine an
// earlier test left running can allocate inside one reading; the least of
// several readings is the scan's own.
func TestScanAllocBound(t *testing.T) {
	const n = 1 << 20
	commas := strings.Repeat(",", n)
	for _, body := range []string{
		`{"queries":` + strings.Repeat("[", n),
		`{"queries":[[1]],"x":"` + commas + `"}`,
		`{"query":[1],"x":"` + commas + `"}`,
		`{"thetas":["` + commas + `"]}`,
		`{"thetas":[0.1],"x":"` + commas + `"}`,
		`{"queries":[[1,2],["` + commas + `"]]}`,
	} {
		b := []byte(body)
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if scanQuery(b, &searchRequest{}) || scanQuery(b, &knnRequest{}) {
				t.Fatalf("scanner took %.20q…", body)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<10 {
			t.Fatalf("scan of %.20q… (%d bytes) allocated %d bytes", body, len(b), least)
		}
	}
}
