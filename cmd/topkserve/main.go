// Command topkserve is a concurrent query service for top-k-list similarity
// search: it serves exact range and KNN queries over HTTP — one or many named
// collections per process, each one index, many requests in parallel.
//
// Every collection is one internal/invindex.Mutable — the paper's
// rank-augmented inverted index, mutable with stable ids, built with one
// worker per core — and the
// -kind names its range algorithm: hybrid (the default) and inverted-drop
// run F&V+Drop, inverted F&V, merge ListMerge; all answer the same, and KNN
// is the native posting-list pass on every kind. Any other -kind is a usage
// error before anything listens; the paper baselines (coarse*, blocked*, the
// metric trees) are built by topkquery -index and measured by topkbench, and
// this command links none of them. Every served kind takes the same options:
// -delta-ratio sets its compaction ratio; -calibrate and -shards are ignored.
//
// Usage:
//
//	topkgen -preset nyt -n 50000 | topkserve -data -
//	topkserve -load-snapshot rankings.v3 -kind inverted-drop
//	topkserve -load-snapshot rankings.v3 -kind hybrid -wal /var/lib/topk/wal
//	topkserve -kind hybrid -wal-root /var/lib/topk    # multi-tenant, starts empty
//
// Collection lifecycle (multi-tenant):
//
//	PUT    /collections/{name}  create an empty collection; optional JSON
//	                            body {"kind","shards","k","calibrate",
//	                            "deltaRatio","weight"} overrides the server
//	                            defaults (every kind takes deltaRatio, and
//	                            accepts and ignores calibrate and shards)
//	DELETE /collections/{name}  drain in-flight requests, drop the collection
//	                            and remove its WAL directory
//	GET    /collections[/name]  shape, counters and durability lag
//
// Data endpoints, rooted per collection at /c/{name}/... — the classic
// single-collection routes (/search, /knn, ...) remain as aliases for the
// -default-collection:
//
//	POST /c/{name}/search   {"query":[1,2,3],"theta":0.2}            single query
//	                        {"queries":[[1,2,3],[4,5,6]],"theta":0.2} batch
//	                        {"queries":[...],"thetas":[0.1,0.3]}      mixed-radius batch
//	POST /c/{name}/knn      {"query":[1,2,3],"n":5}      exact k-nearest neighbors
//	POST /c/{name}/insert   {"ranking":[1,2,3]}          add a ranking, returns its id
//	POST /c/{name}/delete   {"id":7}                     remove a ranking
//	POST /c/{name}/update   {"id":7,"ranking":[3,2,1]}   replace a ranking, id stable
//	GET  /c/{name}/snapshot v3 snapshot of the live collection, ids and
//	                        tombstones kept (restart with -load-snapshot)
//	POST /c/{name}/checkpoint  incremental checkpoint into the collection's
//	                        WAL directory, then truncate the log below it
//	GET  /c/{name}/stats    live collection size, tombstones, rebuilds,
//	                        distance calls, query counters, WAL, storage,
//	                        admission and cache sections
//	GET  /metrics  Prometheus text exposition: HTTP request/error/in-flight/
//	               latency by route and status, and per-collection size,
//	               WAL and compaction families labeled with a bounded
//	               collection label
//	GET  /healthz  liveness probe (200 as long as the process serves HTTP)
//	GET  /readyz   readiness probe (503 until every collection's build and
//	               WAL replay finish, 200 after)
//	GET  /debug/trace  ring of the most recent per-request traces: request
//	               id, collection, per-stage timings and the distance calls
//	               of a /search or /knn
//
// Every handler error — including unknown routes and method mismatches — is
// a JSON body {"error": <message>, "code": <slug>}.
//
// Durability: -wal <dir> keeps the classic single-collection layout (the
// default collection's log lives directly in the directory). -wal-root
// <dir> is the multi-tenant layout: one subdirectory per collection plus a
// CRC-checked MANIFEST recording every dynamically created collection, all
// of which are recovered — checkpoint plus logged suffix — on restart.
// The two flags differ only in which directory a collection name maps to.
//
// Snapshots and checkpoints are persist's paged v3 format and nothing else,
// read whole at startup with every page checksum verified: a corrupt page is
// a startup error naming the file and the page. A v1/v2 "TKRK" file given
// to -load-snapshot, or a checkpoint-<seq>.bin found in a WAL directory, is
// a startup error naming the file and the offline migration:
// topkquery -load-snapshot old.bin -save-snapshot new.v3
//
// See the package comment of internal/server for the serving-core design;
// this command is flag parsing plus server.New(cfg).Run(ctx).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"topk/internal/invindex"
	"topk/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dataPath   = flag.String("data", "", "default collection path (- = stdin), one ranking per line")
		snapPath   = flag.String("load-snapshot", "", "v3 collection snapshot (see topkgen -format binary / topkquery -save-snapshot / GET /snapshot)")
		kind       = flag.String("kind", "hybrid", server.KindNames())
		_          = flag.Int("shards", 0, "ignored: a collection is one index; the flag remains because benchmark/ still passes it")
		_          = flag.Int("calibrate", 0, "ignored: no kind has a query router left to calibrate; the flag remains because benchmark/ still passes it")
		deltaRatio = flag.Float64("delta-ratio", invindex.DefaultCompactionRatio, "tombstone fraction of a collection's id space above which a delete or update compacts its index synchronously, on every kind (<= 0 disables)")
		maxBody    = flag.Int64("max-body", 16<<20, "maximum request body size in bytes on every endpoint; larger bodies get 413")
		walDir     = flag.String("wal", "", "single-collection write-ahead-log directory: append every acked mutation before responding, recover checkpoint+log on startup")
		walRoot    = flag.String("wal-root", "", "multi-tenant WAL root: one subdirectory per collection plus a MANIFEST; dynamically created collections become durable and are recovered on restart")
		walEvery   = flag.Int("wal-sync-every", 1, "fsync the WAL after every n-th mutation (1 = synchronous commit, 0 = rely on -wal-sync-interval and shutdown)")
		walIvl     = flag.Duration("wal-sync-interval", 0, "background WAL fsync interval (0 disables; combines with -wal-sync-every)")
		slowQuery  = flag.Duration("slow-query", 0, "log any request at least this slow to stderr as one-line JSON with per-stage timings (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty disables)")
		defTimeout = flag.Duration("default-timeout", 0, "per-request deadline on /search and /knn: past it a batch stops between batch members and the client gets 504 (0 disables)")
		maxConc    = flag.Int("max-concurrency", 0, "admission control: concurrent search weight bound shared by all collections, one unit per batch member (0 = 2x GOMAXPROCS, negative disables admission control entirely)")
		maxQueue   = flag.Int("max-queue", 0, "admission control: requests allowed to wait for a search slot before shedding with 429 (0 = 4x effective -max-concurrency)")
		maxWait    = flag.Duration("max-queue-wait", time.Second, "admission control: longest a queued request waits for a slot before shedding with 429 (0 = wait as long as the request's own deadline allows)")
		cacheSize  = flag.Int("cache-entries", 0, "query-result cache capacity in entries for /search single queries and /knn, shared across collections with per-collection scoping; any acked mutation invalidates (0 disables)")
		defColl    = flag.String("default-collection", server.DefaultCollectionName, "name the legacy single-collection routes (/search, /insert, ...) alias to")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		Addr:              *addr,
		DataPath:          *dataPath,
		SnapshotPath:      *snapPath,
		DefaultCollection: *defColl,
		Kind:              *kind,
		DeltaRatio:        *deltaRatio,
		MaxBody:           *maxBody,
		WALDir:            *walDir,
		WALRoot:           *walRoot,
		WALSyncEvery:      *walEvery,
		WALSyncInterval:   *walIvl,
		SlowQuery:         *slowQuery,
		DebugAddr:         *debugAddr,
		DefaultTimeout:    *defTimeout,
		MaxConcurrency:    *maxConc,
		MaxQueue:          *maxQueue,
		MaxQueueWait:      *maxWait,
		CacheEntries:      *cacheSize,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
