package main

import (
	"context"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"topk/internal/difftest"
	"topk/internal/persist"
	"topk/internal/wal"
)

// serverTrace is one entry of the server's GET /debug/trace ring.
type serverTrace struct {
	ID          string    `json:"id"`
	Start       time.Time `json:"start"`
	TotalMicros float64   `json:"totalMicros"`
	Stages      []struct {
		Name   string  `json:"name"`
		Micros float64 `json:"micros"`
	} `json:"stages"`
}

func (t *serverTrace) stage(name string) (float64, bool) {
	for _, s := range t.Stages {
		if s.Name == name {
			return s.Micros, true
		}
	}
	return 0, false
}

// traceRingReads is how many requests go by between two reads of the
// server's 256-entry trace ring: well under its size, so none is lost.
const traceRingReads = 128

// traced is the traced run of one workload. Nothing end-to-end comes from
// it: one client sends a fixed number of operations, so that the server's
// counters repeat exactly between runs of one seed, then the same requests
// are replayed through the in-process depths.
func (e *env) traced(ctx context.Context, name string) (*report, error) {
	w, err := generate(name, e.rs, e.cfg, e.sc, e.seed)
	if err != nil {
		return nil, err
	}
	sp, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	defer sp.close()
	l, err := e.bringUp(ctx, w, 1)
	if err != nil {
		return nil, err
	}
	defer func() { l.srv.kill() }()
	rep := &report{workload: name, clients: 1, flags: l.srv.flags}
	list := w.order[:min(w.traceOps, len(w.order))]
	replayN := min(w.replayOps, len(list))

	// Depth 0 and 1 on the live server: the client's clock around the socket
	// round trip, and the server's own record of the same request.
	probe := newClient(l.srv.base)
	defer probe.close()
	handler := make(map[int]serverTrace)
	readRing := func(c *client) {
		var ring struct {
			Traces []serverTrace `json:"traces"`
		}
		if c.getJSON("/debug/trace", &ring) != nil {
			return
		}
		for _, t := range ring.Traces {
			if op, err := strconv.Atoi(t.ID); err == nil {
				handler[op] = t
			}
		}
	}
	ph := phase{list: list, clients: 1, keep: w.sampled, requestIDs: true,
		after: func(c *client, rec *opRecord) {
			if int(rec.op)%traceRingReads == traceRingReads-1 {
				readRing(c)
			}
		}}
	if w.durable {
		ph.checkpoint = func(op int, _ time.Duration) bool { return op >= len(list)/2 }
	}
	s0, err := scrapeServer(probe)
	if err != nil {
		return nil, err
	}
	u0, err := l.srv.usage()
	if err != nil {
		return nil, err
	}
	cpu0, t0 := selfCPU(), time.Now()
	res := ph.run(ctx, w, l.srv.base)
	readRing(probe)
	if err := e.awaitRebuilds(ctx, probe, w); err != nil {
		return nil, err
	}
	cpu1 := selfCPU()
	u1, err := l.srv.usage()
	if err != nil {
		return nil, err
	}
	s1, err := scrapeServer(probe)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ops := account(rep, w, &res)

	// Spans of the replayed prefix: socket, and under it the server's handler.
	handlerSpan := make([]int, replayN)
	for i := range handlerSpan {
		rec := &res.records[i]
		sock := e.spans.add(name, i, -1, "client", "socket", t0.Add(rec.start), t0.Add(rec.end))
		handlerSpan[i] = sock
		if t, ok := handler[i]; ok {
			handlerSpan[i] = e.spans.add(name, i, sock, "server", "handler", t.Start, t.Start.Add(time.Duration(t.TotalMicros*1e3)))
		}
	}
	overhead := e.traceOverhead(w, list[:replayN], l.srv.base)

	var recoverS, restoreMs float64
	var replayedRecords int
	var diskBytes int64
	if w.durable {
		d, err := e.crashAndRecover(ctx, w, l)
		if err != nil {
			return nil, err
		}
		recoverS = d.Seconds()
		recovered := newClient(l.srv.base)
		var st serverStats
		if err := recovered.getJSON("/stats", &st); err == nil && st.WAL != nil {
			replayedRecords = st.WAL.Replayed
		}
		recovered.close()
		diskBytes = dirBytes(l.walDir)
	}
	e.verify(rep, w, res.records, difftest.NewOracle(e.rs), l)
	l.srv.kill() // the in-process build below wants the memory and both cores
	if w.durable {
		restoreMs = timeRestore(l.walDir)
	}

	on, err := newOnion(e, w)
	if err != nil {
		return nil, err
	}
	defer on.close()
	if err := on.replay(ctx, list[:replayN], func(op int) int { return handlerSpan[op] }); err != nil {
		return nil, err
	}
	regret, err := on.regret(list[:replayN])
	if err != nil {
		return nil, err
	}

	// Assemble the per-layer table.
	reads, writes := latencies(w, res.records)
	layerSelf, spanDur := e.attribute(name, res.records[:replayN], w)
	var transport, handlerUs, parseUs, respondUs []float64
	for i := range res.records {
		t, ok := handler[i]
		if !ok || !res.records[i].ok {
			continue
		}
		handlerUs = append(handlerUs, t.TotalMicros)
		transport = append(transport, us(res.records[i].end-res.records[i].start)-t.TotalMicros)
		if v, ok := t.stage("parse"); ok {
			parseUs = append(parseUs, v)
		}
		if v, ok := t.stage("respond"); ok {
			respondUs = append(respondUs, v)
		}
	}
	var status5xx, status429 int
	mutations := 0
	for i := range res.records {
		if !w.reqs[res.records[i].req].kind.read() && res.records[i].ok {
			mutations++
		}
	}
	for _, s := range res.statuses {
		switch {
		case s == http.StatusTooManyRequests:
			status429++
		case s >= 500:
			status5xx++
		}
	}
	plans, observations, mispredicts := s1.plans(s0)
	var planned uint64
	for _, p := range plans {
		planned += p
	}
	queries := float64(s1.Queries - s0.Queries + s1.KNNQueries - s0.KNNQueries)
	cpu := u1.user + u1.sys - u0.user - u0.sys
	hits, misses := float64(s1.Cache.Hits-s0.Cache.Hits), float64(s1.Cache.Misses-s0.Cache.Misses)
	a, b := s1.Admission, s0.Admission
	shed := a.ShedQueueFull + a.ShedTimeout + a.ShedCanceled - b.ShedQueueFull - b.ShedTimeout - b.ShedCanceled
	queueWait := histDelta(a.Wait, b.Wait)
	fsync := histDelta(s1.WAL.FsyncLatency, s0.WAL.FsyncLatency)
	walBytes, walRecords := float64(s1.WAL.AppendedBytes-s0.WAL.AppendedBytes), float64(s1.WAL.Appended-s0.WAL.Appended)
	merge := histDelta(micros(s1.Merge), micros(s0.Merge))
	var ckptMs, ckptWritten, ckptReused, ckptBytes float64
	if res.ckpt != nil {
		ckptMs, ckptWritten, ckptReused = ms(res.ckptTook), float64(res.ckpt.PagesWritten), float64(res.ckpt.PagesReused)
		ckptBytes = float64(res.ckpt.Bytes)
	}
	userBytes := float64(4 * e.sc.k) // one ranking, as the user handed it over
	backendUs := spanDur["backend.search"]
	validateNs := median(on.validateNs)
	dfcPerQuery := ratio(float64(s1.DistanceCalls-s0.DistanceCalls), queries)

	add := func(name string, value float64, unit string, n int) {
		rep.layers = append(rep.layers, reading{name, value, unit, n})
	}
	add("client.lat_p90_ms", percentile(reads, 0.9), "ms", len(reads))
	add("client.lat_p99_ms", percentile(reads, 0.99), "ms", len(reads))
	add("client.lat_p999_ms", percentile(reads, 0.999), "ms", len(reads))
	add("client.lat_max_ms", percentile(reads, 1), "ms", len(reads))
	add("client.write_p50_ms", percentile(writes, 0.5), "ms", len(writes))
	add("client.write_p99_ms", percentile(writes, 0.99), "ms", len(writes))
	add("client.write_max_ms", percentile(writes, 1), "ms", len(writes))
	add("client.req_bytes_per_op", ratio(float64(res.reqBytes), float64(ops)), "B", ops)
	add("client.resp_bytes_per_op", ratio(float64(res.respBytes), float64(ops)), "B", ops)
	add("client.cpu_s", (cpu1 - cpu0).Seconds(), "s", 0)
	add("client.transport_self_us", median(transport), "us", len(transport))
	add("process.rss_peak_mb", u1.hwMB, "MB", 0)
	add("process.rss_end_mb", u1.rssMB, "MB", 0)
	add("process.cpu_sys_share", ratio(float64(u1.sys-u0.sys), float64(cpu)), "ratio", 0)
	add("process.cpu_us_per_op", ratio(us(cpu), float64(ops)), "us", ops)
	add("process.recover_s", recoverS, "s", 0)
	add("server.handler_us", median(handlerUs), "us", len(handlerUs))
	add("server.self_us", layerSelf["server"], "us", replayN)
	add("server.parse_us", median(parseUs), "us", len(parseUs))
	add("server.respond_us", median(respondUs), "us", len(respondUs))
	add("server.http_5xx", float64(status5xx), "count", 0)
	add("server.http_429", float64(status429), "count", 0)
	add("admit.acquire_ns", spanDur["admit.acquire"]*1e3, "ns", 0)
	add("admit.shed_total", float64(shed), "count", 0)
	add("admit.queue_wait_p99_ms", queueWait.Quantile(0.99)*1e3, "ms", int(queueWait.Count))
	add("qcache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	add("qcache.invalidations", float64(s1.Cache.Invalidations-s0.Cache.Invalidations), "count", 0)
	add("qcache.evictions", float64(s1.Cache.Evictions-s0.Cache.Evictions), "count", 0)
	add("qcache.get_ns", spanDur["qcache.get"]*1e3, "ns", 0)
	add("qcache.put_ns", spanDur["qcache.put"]*1e3, "ns", 0)
	add("shard.search_us", spanDur["shard.call"], "us", 0)
	add("shard.self_us", layerSelf["shard"], "us", replayN)
	add("shard.fanout_p99_us", histDelta(micros(s1.Fanout), micros(s0.Fanout)).Quantile(0.99), "us", 0)
	add("shard.merge_mean_us", ratio(merge.Sum, float64(merge.Count)), "us", 0)
	add("hybrid.search_us", spanDur["hybrid.call"], "us", 0)
	add("hybrid.self_us", layerSelf["hybrid"], "us", replayN)
	add("hybrid.build_s", on.buildS, "s", 0)
	add("hybrid.delta_len", float64(s1.Delta), "count", 0)
	add("hybrid.rebuilds", float64(s1.Rebuilds-s0.Rebuilds), "count", 0)
	add("hybrid.rebuild_s", s1.rebuildSeconds-s0.rebuildSeconds, "s", 0)
	add("planner.share.inverted", ratio(float64(plans["inverted"]), float64(planned)), "ratio", int(planned))
	add("planner.share.adaptsearch", ratio(float64(plans["adaptsearch"]), float64(planned)), "ratio", int(planned))
	add("planner.share.other", ratio(float64(planned-plans["inverted"]-plans["adaptsearch"]), float64(planned)), "ratio", int(planned))
	add("planner.mispredict_ratio", ratio(float64(mispredicts), float64(observations)), "ratio", int(observations))
	add("planner.regret", regret, "ratio", 0)
	add("backend.search_us", backendUs, "us", 0)
	add("backend.self_us", layerSelf["backend"], "us", replayN)
	add("backend.dfc_per_query", dfcPerQuery, "count", int(queries))
	add("backend.candidates_per_result", ratio(float64(on.dfc), float64(on.results)), "ratio", int(on.results))
	add("kernel.compile_ns", median(on.compileNs), "ns", len(on.compileNs))
	add("kernel.validate_ns_per_candidate", validateNs, "ns", len(on.validateNs))
	add("kernel.self_us", layerSelf["kernel"], "us", replayN)
	add("kernel.share", ratio(spanDur["kernel.validate"], backendUs), "ratio", 0)
	add("wal.append_us", spanDur["wal.append"], "us", 0)
	add("wal.fsync_p50_ms", fsync.Quantile(0.5)*1e3, "ms", int(fsync.Count))
	add("wal.fsync_p99_ms", fsync.Quantile(0.99)*1e3, "ms", int(fsync.Count))
	add("wal.bytes_per_mutation", ratio(walBytes, walRecords), "B", int(walRecords))
	add("wal.syncs_per_mutation", ratio(float64(s1.WAL.Syncs-s0.WAL.Syncs), walRecords), "ratio", int(walRecords))
	add("wal.write_amp", ratio(walBytes+ckptBytes, userBytes*float64(mutations)), "ratio", mutations)
	add("persist.checkpoint_ms", ckptMs, "ms", 0)
	add("persist.checkpoint_pages_written", ckptWritten, "count", 0)
	add("persist.checkpoint_pages_reused", ckptReused, "count", 0)
	add("persist.disk_bytes_per_user_byte", ratio(float64(diskBytes), userBytes*float64(s1.N)), "ratio", 0)
	add("persist.restore_ms", restoreMs, "ms", 0)
	add("persist.replayed_records", float64(replayedRecords), "count", 0)
	add("host.slowdown", sp.slowdown(res.start, res.start.Add(res.wall)), "ratio", 0)
	add("trace.overhead_ratio", overhead, "ratio", 0)
	add("trace.spans", float64(len(e.spans.spans)), "count", 0)
	replayedReads, _ := latencies(w, res.records[:replayN])
	add("trace.self_sum_ratio", ratio(layerSelf["sum"], percentile(replayedReads, 0.5)*1e3), "ratio", replayN)
	return rep, nil
}

// awaitRebuilds waits until no shard of a mutated collection is over its
// rebuild threshold any more, so that the epoch rebuilds the operations
// triggered are all installed — and counted — when the counters are read.
func (e *env) awaitRebuilds(ctx context.Context, c *client, w *workload) error {
	if w.deltaRatio <= 0 {
		return nil
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var st serverStats
		if err := c.getJSON("/stats", &st); err != nil {
			return err
		}
		over := false
		for _, s := range st.Shards {
			overlay, space := float64(s.Delta+s.Tombstones), float64(s.Len+s.Tombstones)
			over = over || overlay > w.deltaRatio*space
		}
		if !over {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return ctx.Err()
}

// traceOverhead replays the reads of list on the live server once plain and
// once the way the traced phase sends them — request ids, span recording,
// ring reads — and returns traced median latency ÷ plain median latency.
// Both passes see the same warm server, so the ratio is the tracing alone.
func (e *env) traceOverhead(w *workload, list []int32, base string) float64 {
	var reads []int32
	for _, ri := range list {
		if w.reqs[ri].kind.read() {
			reads = append(reads, ri)
		}
	}
	pass := func(traced bool) float64 {
		ph := phase{list: reads, clients: 1, requestIDs: traced}
		var rec *recorder
		if traced {
			rec = newRecorder()
			ph.after = func(c *client, r *opRecord) {
				rec.add(w.name, int(r.op), -1, "client", "socket", rec.t0.Add(r.start), rec.t0.Add(r.end))
				if int(r.op)%traceRingReads == traceRingReads-1 {
					c.do(http.MethodGet, "/debug/trace", nil, "")
				}
			}
		}
		res := ph.run(context.Background(), w, base)
		lat, _ := latencies(w, res.records)
		return percentile(lat, 0.5)
	}
	pass(false) // settle the cache: both measured passes then see the same hits
	plain := pass(false)
	return ratio(pass(true), plain)
}

// attribute turns the recorded spans of one workload into the per-layer
// table: for each replayed read whose socket latency lies in the middle
// fifth (p40–p60) — the typical request — it walks the request's spans from
// the socket down, at each fan-out following the slowest child, and charges
// each span's self time to its layer. The means over those requests add up
// to the typical socket latency by construction; what is informative is how
// it splits. spanDur is the median duration, in µs, of each span name over
// the requests that reached it (per-shard spans: the slowest shard's).
func (e *env) attribute(workload string, recs []opRecord, w *workload) (layerSelf, spanDur map[string]float64) {
	spans := e.spans.spans
	slowest := slowestChildren(spans)
	self := selfTimes(spans, slowest)
	children := make(map[int][]int) // span → the slowest child of each of its groups
	for key, child := range slowest {
		children[key.parent] = append(children[key.parent], child)
	}
	var sock []float64
	for i := range recs {
		if recs[i].ok && w.reqs[recs[i].req].kind.read() {
			sock = append(sock, us(recs[i].end-recs[i].start))
		}
	}
	sort.Float64s(sock)
	lo, hi := percentile(sock, 0.4), percentile(sock, 0.6)

	layerSelf = make(map[string]float64)
	durs := make(map[string][]float64)
	typical := 0
	for root := range spans {
		s := &spans[root]
		if s.Workload != workload || s.Parent >= 0 || !w.reqs[recs[s.Req].req].kind.read() {
			continue
		}
		d := us(s.dur())
		inBand := d >= lo && d <= hi
		if inBand {
			typical++
		}
		var walk func(id int)
		walk = func(id int) {
			s := &spans[id]
			durs[s.Name] = append(durs[s.Name], us(s.dur()))
			if inBand {
				layerSelf[s.Layer] += us(self[id])
				layerSelf["sum"] += us(self[id])
			}
			for _, c := range children[id] {
				walk(c)
			}
		}
		walk(root)
	}
	for k := range layerSelf {
		layerSelf[k] = ratio(layerSelf[k], float64(typical))
	}
	// Mutations are not reads: their spans only feed the span medians.
	for i := range spans {
		if s := &spans[i]; s.Workload == workload && (s.Name == "wal.append" || s.Name == "shard.mutate") {
			durs[s.Name] = append(durs[s.Name], us(s.dur()))
		}
	}
	spanDur = make(map[string]float64)
	for name, v := range durs {
		spanDur[name] = median(v)
	}
	return layerSelf, spanDur
}

// timeRestore times persist.OpenPagedDir on the newest checkpoint the killed
// server left in its WAL directory; 0 when there is none.
func timeRestore(walDir string) float64 {
	_, cp, err := wal.LatestCheckpoint(walDir)
	if err != nil || !strings.HasSuffix(cp, persist.FooterSuffix) {
		return 0
	}
	start := time.Now()
	pc, _, err := persist.OpenPagedDir(walDir, cp, true)
	if err != nil {
		return 0
	}
	took := time.Since(start)
	pc.Close()
	return ms(took)
}

func dirBytes(dir string) (total int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
