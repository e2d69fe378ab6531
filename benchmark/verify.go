package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// The reply shapes of /search and /knn, reduced to what the oracle checks.
type resultJSON struct {
	ID   ranking.ID `json:"id"`
	Dist int        `json:"dist"`
}

type answerJSON struct {
	Count   int          `json:"count"`
	Results []resultJSON `json:"results"`
}

type searchReply struct {
	answerJSON
	Answers []answerJSON `json:"answers"`
}

func (a answerJSON) results() []ranking.Result {
	out := make([]ranking.Result, len(a.Results))
	for i, r := range a.Results {
		out[i] = ranking.Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// batchMembersChecked bounds the oracle scans spent on one kept batch reply:
// a linear scan of the collection per member is what the check costs.
const batchMembersChecked = 2

// check is one oracle comparison: a query of a kept reply with the answer
// the server gave and the ids whose state was in flux while it ran.
type check struct {
	op      int32
	req     *request
	member  int
	got     answerJSON
	unknown map[ranking.ID]bool
}

// mismatch compares one answer with the linear-scan oracle: ids and raw
// distances, exactly (difftest.Equal), after dropping ids in c.unknown from
// both sides. It returns "" when they agree.
func (c *check) mismatch(o *difftest.Oracle) string {
	got := c.got.results()
	if c.got.Count != len(got) {
		return fmt.Sprintf("op %d: count %d but %d results", c.op, c.got.Count, len(got))
	}
	q := c.req.queries[c.member]
	var want []ranking.Result
	if c.req.kind == opKNN {
		want = oracleNearest(o, q, c.req.nn, got)
	} else {
		want, _ = o.Search(q, c.req.theta)
	}
	if len(c.unknown) > 0 {
		got, want = without(got, c.unknown), without(want, c.unknown)
	}
	if !difftest.Equal(got, want) {
		return fmt.Sprintf("op %d member %d (%s θ=%v): got %d results %v, oracle %d %v",
			c.op, c.member, c.req.kind.path(), c.req.theta, len(got), head(got), len(want), head(want))
	}
	return ""
}

// oracleNearest is the exact n nearest neighbours by (distance, id). The
// scan radius is the server's own n-th distance: if the server is right that
// radius holds exactly the answer, and if it is wrong the comparison fails.
func oracleNearest(o *difftest.Oracle, q ranking.Ranking, n int, got []ranking.Result) []ranking.Result {
	raw := ranking.MaxDistance(o.K())
	if len(got) == n {
		raw = got[n-1].Dist
	}
	all := o.SearchRaw(q, raw)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	return all[:min(n, len(all))]
}

func without(rs []ranking.Result, drop map[ranking.ID]bool) []ranking.Result {
	out := rs[:0:0]
	for _, r := range rs {
		if !drop[r.ID] {
			out = append(out, r)
		}
	}
	return out
}

func head(rs []ranking.Result) []ranking.Result { return rs[:min(len(rs), 4)] }

// checksFor decodes one kept reply into its oracle comparisons.
func checksFor(w *workload, rec *opRecord) ([]check, error) {
	req := &w.reqs[rec.req]
	var reply searchReply
	if err := json.Unmarshal(rec.body, &reply); err != nil {
		return nil, fmt.Errorf("op %d: undecodable reply: %v", rec.op, err)
	}
	if req.kind != opBatch {
		return []check{{op: rec.op, req: req, got: reply.answerJSON}}, nil
	}
	if len(reply.Answers) != len(req.queries) {
		return nil, fmt.Errorf("op %d: %d answers for %d queries", rec.op, len(reply.Answers), len(req.queries))
	}
	out := make([]check, 0, batchMembersChecked)
	for j := 0; j < batchMembersChecked; j++ {
		m := (int(rec.op)*7 + j*len(req.queries)/batchMembersChecked) % len(req.queries)
		out = append(out, check{op: rec.op, req: req, member: m, got: reply.Answers[m]})
	}
	return out, nil
}

// verifyReads compares every kept read reply of a phase with the oracle and
// returns the number of mismatching replies and the first few reports. The
// mutations of a mixed phase are applied to the oracle as they were acked: a
// read is compared with the state of all mutations acked before it was
// sent, ignoring the ids of mutations in flight while it ran. On return the
// oracle holds the collection after the phase.
func verifyReads(w *workload, recs []opRecord, o *difftest.Oracle) (checked, bad int, reports []string) {
	type event struct {
		at  int64
		rec *opRecord
	}
	var events []event
	var muts []*opRecord
	for i := range recs {
		r := &recs[i]
		switch {
		case !r.ok:
		case w.reqs[r.req].kind.read():
			if r.body != nil {
				events = append(events, event{int64(r.start), r})
			}
		default:
			events = append(events, event{int64(r.end), r})
			muts = append(muts, r)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	fail := func(msg string) {
		bad++
		if len(reports) < 5 {
			reports = append(reports, msg)
		}
	}
	// pendingIns holds acked inserts whose id is ahead of the oracle's next
	// slot: a sibling insert the server applied first has not been acked yet.
	pendingIns := make(map[ranking.ID]ranking.Ranking)
	var batch []check
	flush := func() {
		// The oracle is read-only between mutations, so the scans of one
		// stretch of reads run on every core.
		msgs := make([]string, len(batch))
		var wg sync.WaitGroup
		workers := runtime.NumCPU()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(batch); i += workers {
					msgs[i] = batch[i].mismatch(o)
				}
			}(g)
		}
		wg.Wait()
		seen := make(map[int32]bool)
		for i, m := range msgs {
			if m != "" && !seen[batch[i].op] {
				seen[batch[i].op] = true
				fail(m)
			}
		}
		batch = batch[:0]
	}
	for _, ev := range events {
		r, req := ev.rec, &w.reqs[ev.rec.req]
		if req.kind.read() {
			cs, err := checksFor(w, r)
			if err != nil {
				fail(err.Error())
				continue
			}
			checked++
			var unknown map[ranking.ID]bool
			for _, m := range muts {
				if m.start < r.end && m.end > r.start {
					if unknown == nil {
						unknown = make(map[ranking.ID]bool)
					}
					unknown[m.id] = true
				}
			}
			for id := range pendingIns {
				if unknown == nil {
					unknown = make(map[ranking.ID]bool)
				}
				unknown[id] = true
			}
			for i := range cs {
				cs[i].unknown = unknown
			}
			batch = append(batch, cs...)
			continue
		}
		flush()
		var err error
		switch req.kind {
		case opInsert:
			pendingIns[r.id] = req.rk
			for rk, ok := pendingIns[ranking.ID(o.NumSlots())]; ok; rk, ok = pendingIns[ranking.ID(o.NumSlots())] {
				delete(pendingIns, o.Insert(rk))
			}
		case opUpdate:
			err = o.Update(r.id, req.rk)
		case opDelete:
			err = o.Delete(r.id)
		}
		if err != nil {
			fail(fmt.Sprintf("op %d: server acked %s the oracle rejects: %v", r.op, req.kind.path(), err))
		}
	}
	flush()
	if len(pendingIns) > 0 {
		fail(fmt.Sprintf("%d acked inserts left a gap in the id space below them", len(pendingIns)))
	}
	return checked, bad, reports
}

// verifyRecovered checks the restarted server against the acked history:
// every acked insert and update is found at θ = 0 under its id, every acked
// delete is gone, and /stats n equals the oracle's live count.
func verifyRecovered(w *workload, recs []opRecord, before []ranking.Ranking, o *difftest.Oracle, base string) (checked, bad int, reports []string) {
	c := newClient(base)
	defer c.close()
	fail := func(format string, a ...any) {
		bad++
		if len(reports) < 5 {
			reports = append(reports, fmt.Sprintf(format, a...))
		}
	}
	for i := range recs {
		r, req := &recs[i], &w.reqs[recs[i].req]
		if !r.ok || req.kind.read() {
			continue
		}
		checked++
		rk, wantFound := req.rk, true
		if req.kind == opDelete {
			rk, wantFound = before[r.id], false
		}
		status, body, err := c.do(http.MethodPost, "/search", searchBody(rk, 0), "")
		var reply searchReply
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &reply) != nil {
			fail("op %d: recovery probe for id %d failed: status %d err %v", r.op, r.id, status, err)
			continue
		}
		found := false
		for _, res := range reply.Results {
			found = found || (res.ID == r.id && res.Dist == 0)
		}
		if found != wantFound {
			fail("op %d: acked %s of id %d: found after recovery = %v, want %v", r.op, req.kind.path(), r.id, found, wantFound)
		}
	}
	var st struct {
		N int `json:"n"`
	}
	if err := c.getJSON("/stats", &st); err != nil {
		fail("stats after recovery: %v", err)
	} else if st.N != o.Len() {
		fail("recovered server holds n=%d rankings, acked history leaves %d", st.N, o.Len())
	}
	return checked, bad, reports
}
