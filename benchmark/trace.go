package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share req; a
// child names the span that caused it in parent. Depths below the server are
// replayed in-process one at a time, so a child does not nest inside its
// parent on the clock: what links them is the request id, and a layer's self
// time is computed from durations (see selfTimes).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a request's outermost span
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"startNs"` // since the recorder was created
	EndNs    int64  `json:"endNs"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished span and returns its id. A nil recorder records
// nothing, which is the "recorder off" side of the overhead measurement.
func (r *recorder) add(workload string, req, parent int, layer, name string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Workload: workload, Req: req, Layer: layer, Name: name,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(map[string]any{"spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// childKey names a group of sibling spans: the children of one span that
// share a name. Children of different names ran one after another; children
// of one name are the parallel per-shard calls of a fan-out.
type childKey struct {
	parent int
	name   string
}

// slowestChildren returns, for each group of siblings, the span that took
// longest: in a fan-out the slowest shard sets the time.
func slowestChildren(spans []span) map[childKey]int {
	slowest := make(map[childKey]int)
	for i := range spans {
		if spans[i].Parent < 0 {
			continue
		}
		key := childKey{spans[i].Parent, spans[i].Name}
		if cur, ok := slowest[key]; !ok || spans[i].dur() > spans[cur].dur() {
			slowest[key] = i
		}
	}
	return slowest
}

// selfTimes returns, per span id, the span's duration minus its children's:
// the groups of siblings add up, and of each group only the slowest counts.
func selfTimes(spans []span, slowest map[childKey]int) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for key, child := range slowest {
		self[key.parent] -= spans[child].dur()
	}
	return self
}
