package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/persist"
	"topk/internal/ranking"
)

// env is what every workload of one invocation shares: the collection, its
// snapshot on disk, the server binary and the scratch directory.
type env struct {
	work     string // scratch directory, removed on exit
	bin      string // topkserve
	sc       scale
	cfg      dataset.Config
	rs       []ranking.Ranking
	snapshot string
	seed     int64
	seconds  time.Duration
	spans    *recorder // traced runs only
}

// newEnv generates the collection and writes its snapshot. The collection
// does not depend on the seed: the seed drives only queries and operations.
func newEnv(work, bin string, sc scale, seed int64, seconds time.Duration) (*env, error) {
	cfg := dataset.NYTLike(sc.n, sc.k)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{work: work, bin: bin, sc: sc, cfg: cfg, rs: rs, seed: seed, seconds: seconds,
		snapshot: filepath.Join(work, "collection.v3")}
	if err := persist.WritePagedFile(e.snapshot, rs); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	return e, nil
}

// report is the outcome of one workload: what the contract's JSON line and
// the human table are printed from.
type report struct {
	workload  string
	clients   int
	flags     []string
	endToEnd  []reading
	layers    []reading // traced runs only
	attempted int
	failed    int
	notes     []string // mismatch reports and other things a reader must see
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// serverFlags is the full flag list of the workload's server.
func (e *env) serverFlags(w *workload, walDir string, withSnapshot bool) []string {
	flags := append([]string(nil), baseFlags...)
	if w.deltaRatio > 0 {
		flags = append(flags, "-delta-ratio", strconv.FormatFloat(w.deltaRatio, 'g', -1, 64))
	}
	if walDir != "" {
		flags = append(flags, "-wal", walDir, "-wal-sync-every", "1")
	}
	if withSnapshot {
		flags = append(flags, "-load-snapshot", e.snapshot)
	}
	return flags
}

// live is a spawned server with its workload warmed up, ready to be measured.
type live struct {
	srv    *serverProc
	walDir string
}

// bringUp spawns the workload's server and sends the untimed warm-up from the
// given number of clients.
func (e *env) bringUp(ctx context.Context, w *workload, clients int) (*live, error) {
	l := &live{}
	if w.durable {
		l.walDir = filepath.Join(e.work, "wal-"+w.name)
		if err := os.RemoveAll(l.walDir); err != nil {
			return nil, err
		}
	}
	srv, err := startServer(ctx, e.bin, e.serverFlags(w, l.walDir, true))
	if err != nil {
		return nil, err
	}
	l.srv = srv
	warm := phase{list: w.warm, clients: clients}.run(ctx, w, srv.base)
	for i := range warm.records {
		if !warm.records[i].ok {
			srv.kill()
			return nil, fmt.Errorf("%s: warm-up operation %d failed\nstderr tail:\n%s", w.name, i, srv.stderrTail())
		}
	}
	return l, nil
}

// crashAndRecover is kill -9, then a restart on the same WAL directory with
// no snapshot: the server must come back from checkpoint and log alone.
func (e *env) crashAndRecover(ctx context.Context, w *workload, l *live) (time.Duration, error) {
	l.srv.kill()
	srv, err := startServer(ctx, e.bin, e.serverFlags(w, l.walDir, false))
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	l.srv = srv
	return srv.setup, nil
}

// measure is the untraced run of one workload: the end-to-end numbers.
func (e *env) measure(ctx context.Context, name string) (*report, error) {
	w, err := generate(name, e.rs, e.cfg, e.sc, e.seed)
	if err != nil {
		return nil, err
	}
	sp, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	defer sp.close()
	l, err := e.bringUp(ctx, w, w.clients)
	if err != nil {
		return nil, err
	}
	defer func() { l.srv.kill() }()
	rep := &report{workload: name, clients: w.clients, flags: l.srv.flags}
	setup, setupSlow := l.srv.setup, sp.slowdown(l.srv.started, l.srv.started.Add(l.srv.setup))

	// A list of reads starts over when it runs out, so the clock always ends
	// the phase; a list with mutations cannot (its ids are used once).
	ph := phase{list: w.order, clients: w.clients, limit: e.seconds, wrap: !w.durable, keep: w.sampled}
	if w.durable {
		// Half-way by the clock, or by the list where the list is the shorter.
		ph.checkpoint = func(op int, elapsed time.Duration) bool {
			return elapsed >= e.seconds/2 || op >= len(w.order)/2
		}
	}
	probe := newClient(l.srv.base)
	defer probe.close()
	s0, err := scrapeServer(probe)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	sampled := l.srv.sampleCPU(e.seconds/parts, stop)
	res := ph.run(ctx, w, l.srv.base)
	close(stop)
	samples := <-sampled
	s1, err := scrapeServer(probe)
	if err != nil {
		return nil, err
	}
	rep.note("%s", counterNote(s0, s1))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !ph.wrap && len(res.records) == len(w.order) {
		rep.note("the operation list ran out before the clock: %d operations in %v", len(w.order), res.wall)
	}
	ws := windows(w, &res, samples, sp.slowdown)
	if len(ws) == 0 {
		return nil, fmt.Errorf("%s: the server's CPU clock could not be read", name)
	}

	ops := account(rep, w, &res)
	reads, writes := latencies(w, res.records)
	rep.endToEnd = []reading{
		{"setup_s", setup.Seconds() / setupSlow, "s", 1},
		{"throughput_ops_s", medianOver(ws, (*window).throughput), "1/s", ops},
		{"lat_p50_ms", medianOver(ws, (*window).p50), "ms", len(reads)},
		{"lat_p99_ms", medianOver(ws, (*window).p99), "ms", len(reads)},
		{"cpu_us_per_op", medianOver(ws, (*window).cpuPerOp), "us", ops},
	}
	rep.note("%s", rawNote(ws, setup, setupSlow, res.wall, reads))
	o := difftest.NewOracle(e.rs)
	if w.durable {
		rep.endToEnd = append(rep.endToEnd, reading{"write_p50_ms", percentile(writes, 0.5) / medianOver(ws, func(w *window) float64 { return w.slow }), "ms", len(writes)})
		recovered, err := e.crashAndRecover(ctx, w, l)
		if err != nil {
			return nil, err
		}
		slow := sp.slowdown(l.srv.started, l.srv.started.Add(recovered))
		rep.endToEnd = append(rep.endToEnd, reading{"recover_s", recovered.Seconds() / slow, "s", 1})
	}
	e.verify(rep, w, res.records, o, l)
	rep.endToEnd = append(rep.endToEnd, reading{"failed_share", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted})
	return rep, nil
}

// rawNote sets what the clocks read over the undivided run, with no
// correction, beside the table's host-corrected medians of parts, and says
// how slow the host ran during set-up and during each part and how much of
// the machine's CPU time the hypervisor reported as stolen.
func rawNote(ws []window, setup time.Duration, setupSlow float64, wall time.Duration, reads []float64) string {
	total := window{length: wall, slow: 1, reads: reads}
	perPart := make([]string, len(ws))
	for i := range ws {
		total.ops += ws[i].ops
		total.cpu += ws[i].cpu
		total.steal += ws[i].steal
		perPart[i] = strconv.FormatFloat(ws[i].slow, 'f', 2, 64)
	}
	cpus := float64(runtime.NumCPU())
	return fmt.Sprintf("as the clocks read it, whole run: setup_s=%.4f throughput_ops_s=%.1f lat_p50_ms=%.4f lat_p99_ms=%.4f cpu_us_per_op=%.2f; host slowdown: set-up %.2f, parts %s; steal %.1f%%",
		setup.Seconds(), total.throughput(), total.p50(), total.p99(), total.cpuPerOp(),
		setupSlow, strings.Join(perPart, " "), 100*total.steal.Seconds()/(wall.Seconds()*cpus))
}

// account counts attempted and failed requests of the measured phase into
// the report and returns the successful operations (batch members count one
// each).
func account(rep *report, w *workload, res *phaseResult) (ops int) {
	rep.attempted += len(res.records)
	for i := range res.records {
		if res.records[i].ok {
			ops += w.reqs[res.records[i].req].members()
		} else {
			rep.failed++
		}
	}
	if w.durable {
		rep.attempted++
		if res.ckpt == nil {
			rep.failed++
			rep.note("checkpoint failed: %v", res.ckptErr)
		}
	}
	return ops
}

// verify runs the correctness checks that are part of the command and counts
// every mismatch as a failed operation.
func (e *env) verify(rep *report, w *workload, recs []opRecord, o *difftest.Oracle, l *live) {
	checked, bad, reports := verifyReads(w, recs, o)
	if w.durable {
		c2, b2, r2 := verifyRecovered(w, recs, e.rs, o, l.srv.base)
		checked, bad, reports = checked+c2, bad+b2, append(reports, r2...)
	}
	rep.failed += bad
	rep.note("verified %d replies against the linear-scan oracle: %d mismatches", checked, bad)
	for _, r := range reports {
		rep.note("MISMATCH %s", r)
	}
}

// counterNote is the one-line summary of the server's own counters over the
// measured phase that accompanies an untraced run.
func counterNote(s0, s1 scrape) string {
	plans, _, _ := s1.plans(s0)
	hits, misses := s1.Cache.Hits-s0.Cache.Hits, s1.Cache.Misses-s0.Cache.Misses
	queries := s1.Queries - s0.Queries + s1.KNNQueries - s0.KNNQueries
	return fmt.Sprintf("server counters: queries=%d cache_hit_ratio=%.4f dfc_per_query=%.1f rebuilds=%d delta=%d plans=%v",
		queries, ratio(float64(hits), float64(hits+misses)),
		ratio(float64(s1.DistanceCalls-s0.DistanceCalls), float64(queries)), s1.Rebuilds-s0.Rebuilds, s1.Delta, plans)
}
