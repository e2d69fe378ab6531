package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/ranking"
)

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the reply to its last byte. The returned
// body is valid until the next call.
func (c *client) do(method, path string, body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// getJSON fetches and decodes one of the server's JSON endpoints.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// opRecord is what the harness remembers of one sent operation. Times are
// offsets from the phase start.
type opRecord struct {
	op         int32 // position in the phase's list
	req        int32 // index into workload.reqs
	ok         bool  // 2xx and a complete body
	start, end time.Duration
	id         ranking.ID // acked mutation: the id it applied to
	body       []byte     // reply, kept only where phase.keep says so
}

// phase describes one pass over an operation list.
type phase struct {
	list    []int32
	clients int
	// limit stops the phase after this long; 0 runs the whole list.
	limit time.Duration
	// wrap starts the list over when it runs out before limit, so that the
	// clock always ends a measured phase, however fast the server gets.
	wrap bool
	// keep selects the read replies retained for verification.
	keep func(op int) bool
	// checkpoint, when set, reports once that POST /checkpoint is due before
	// operation op; the client that sees it sends it.
	checkpoint func(op int, elapsed time.Duration) bool
	// requestIDs sends X-Request-ID: <op>, so the server's own trace ring can
	// be joined to the client's records.
	requestIDs bool
	// after runs after each operation of a single-client phase, off the clock.
	after func(c *client, rec *opRecord)
}

// phaseResult is everything one pass observed.
type phaseResult struct {
	records   []opRecord // every client's, sorted by op
	start     time.Time  // the instant the records' offsets count from
	statuses  []int      // HTTP status of every request that was not answered 2xx (0: transport error)
	wall      time.Duration
	reqBytes  int64
	respBytes int64
	ckpt      *checkpointReply // nil when no checkpoint was taken
	ckptTook  time.Duration
	ckptErr   error
}

// checkpointReply is what the harness reads of POST /checkpoint's answer.
type checkpointReply struct {
	Bytes        int64 `json:"bytes"`
	PagesWritten int   `json:"pagesWritten"`
	PagesReused  int   `json:"pagesReused"`
}

// run drives the phase against base and returns when every client stopped.
func (ph phase) run(ctx context.Context, w *workload, base string) phaseResult {
	var (
		next     atomic.Int64
		ckptOnce atomic.Bool
		res      phaseResult
		mu       sync.Mutex
		wg       sync.WaitGroup
		perCl    = make([][]opRecord, ph.clients)
	)
	t0 := time.Now()
	if len(ph.list) == 0 {
		return phaseResult{start: t0}
	}
	for ci := 0; ci < ph.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			recs := make([]opRecord, 0, len(ph.list)/ph.clients+16)
			var reqB, respB int64
			var statuses []int
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if (i >= len(ph.list) && !ph.wrap) || (ph.limit > 0 && time.Since(t0) >= ph.limit) {
					break
				}
				ri := ph.list[i%len(ph.list)]
				if ph.checkpoint != nil && !ckptOnce.Load() && ph.checkpoint(i, time.Since(t0)) && ckptOnce.CompareAndSwap(false, true) {
					cp, took, err := takeCheckpoint(c)
					mu.Lock()
					res.ckpt, res.ckptTook, res.ckptErr = cp, took, err
					mu.Unlock()
				}
				r := &w.reqs[ri]
				reqID := ""
				if ph.requestIDs {
					reqID = strconv.Itoa(i)
				}
				rec := opRecord{op: int32(i), req: ri, id: r.id}
				rec.start = time.Since(t0)
				status, body, err := c.do(http.MethodPost, r.kind.path(), r.body, reqID)
				rec.end = time.Since(t0)
				if rec.ok = err == nil && status/100 == 2; !rec.ok {
					statuses = append(statuses, status)
				}
				reqB += int64(len(r.body))
				respB += int64(len(body))
				if rec.ok && r.kind == opInsert {
					var ack struct {
						ID ranking.ID `json:"id"`
					}
					if json.Unmarshal(body, &ack) != nil {
						rec.ok = false
					}
					rec.id = ack.ID
				}
				if rec.ok && r.kind.read() && ph.keep != nil && ph.keep(i) {
					rec.body = append([]byte(nil), body...)
				}
				recs = append(recs, rec)
				if ph.after != nil {
					ph.after(c, &recs[len(recs)-1])
				}
			}
			perCl[ci] = recs
			mu.Lock()
			res.reqBytes += reqB
			res.respBytes += respB
			res.statuses = append(res.statuses, statuses...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	res.wall, res.start = time.Since(t0), t0
	res.records = mergeByOp(perCl)
	return res
}

func takeCheckpoint(c *client) (*checkpointReply, time.Duration, error) {
	start := time.Now()
	status, body, err := c.do(http.MethodPost, "/checkpoint", nil, "")
	took := time.Since(start)
	if err != nil {
		return nil, took, err
	}
	if status != http.StatusOK {
		return nil, took, fmt.Errorf("POST /checkpoint: status %d: %s", status, body)
	}
	var cp checkpointReply
	return &cp, took, json.Unmarshal(body, &cp)
}

// mergeByOp interleaves the clients' records back into list order. Each
// client's records are already ascending because the cursor is shared.
func mergeByOp(perCl [][]opRecord) []opRecord {
	total := 0
	for _, r := range perCl {
		total += len(r)
	}
	out := make([]opRecord, 0, total)
	for len(out) < total {
		best := -1
		for ci, r := range perCl {
			if len(r) > 0 && (best < 0 || r[0].op < perCl[best][0].op) {
				best = ci
			}
		}
		out = append(out, perCl[best][0])
		perCl[best] = perCl[best][1:]
	}
	return out
}
