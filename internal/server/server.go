// Package server is the reusable serving core of topkserve: a multi-tenant
// registry of named collections — each one a sharded top-k similarity index
// with its own write-ahead log, admission weight, query-cache scope and
// counters — behind one HTTP surface.
//
// Lifecycle routes manage tenants (PUT/DELETE/GET /collections/{name},
// GET /collections); data routes are rooted per collection
// (/c/{name}/search, /knn, /insert, ...), with the classic single-collection
// routes (/search, /knn, ...) kept as aliases for the default collection so
// existing clients keep working unchanged. Durability is rooted at one WAL
// directory tree: a subdirectory per collection plus a CRC-checked MANIFEST
// from which every dynamically created tenant is recovered on restart.
//
// cmd/topkserve reduces to flag parsing plus server.New(cfg).Run(ctx).
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topk"
	"topk/internal/admit"
	"topk/internal/persist"
	"topk/internal/qcache"
	"topk/internal/ranking"
	"topk/internal/shard"
	"topk/internal/wal"
)

// defaultMaxBody bounds request bodies when -max-body is not given.
const defaultMaxBody = 16 << 20

// DefaultCollectionName names the flag-defined collection when the operator
// does not pick one.
const DefaultCollectionName = "default"

// Config carries every knob of the serving core; cmd/topkserve maps its
// flags onto it one to one. Zero values mean the documented flag defaults.
type Config struct {
	Addr string // listen address

	// Base data of the default collection: text collection (- = stdin) or
	// binary persist snapshot; at most one.
	DataPath     string
	SnapshotPath string

	// DefaultCollection names the collection the legacy single-collection
	// routes alias to; empty means DefaultCollectionName. It is flag-defined:
	// rebuilt from Data/Snapshot/its WAL on every start, never listed in the
	// manifest, and not droppable over HTTP.
	DefaultCollection string

	Kind         string  // index kind of the default collection
	Shards       int     // shard count (0 = GOMAXPROCS)
	MaxTheta     float64 // coarse auto-tune target threshold
	ForceBackend string  // hybrid only
	Calibrate    int     // hybrid only
	DeltaRatio   float64 // hybrid only

	MaxBody int64 // request-body bound, bytes (0 = 16 MiB)

	// WALDir is the legacy single-collection layout (-wal): the default
	// collection's log lives directly in this directory and no other
	// collection is durable. WALRoot (-wal-root) is the multi-tenant layout:
	// one subdirectory per collection plus the MANIFEST; dynamically created
	// collections are durable and recovered on restart. At most one of the
	// two may be set.
	WALDir          string
	WALRoot         string
	WALSyncEvery    int
	WALSyncInterval time.Duration

	SlowQuery      time.Duration // slow-query log threshold (0 disables)
	DebugAddr      string        // separate pprof listener (empty disables)
	DefaultTimeout time.Duration // per-request /search|/knn deadline

	// Admission control (shared across collections; per-collection weights
	// carve slices out of this capacity).
	MaxConcurrency int // 0 = 2x GOMAXPROCS, negative disables
	MaxQueue       int // 0 = 4x effective MaxConcurrency
	MaxQueueWait   time.Duration

	CacheEntries int // query-result cache capacity (0 disables)

	// Mmap serves v3 (paged) checkpoints through a read-only memory mapping
	// of the page file instead of decoding them to the heap: cold start does
	// no per-ranking work and rarely-touched collections stay in page cache,
	// not RSS. cmd/topkserve sets it from -mmap (default true); the false
	// escape hatch reads the file whole and verifies every page checksum.
	Mmap bool
	// SpillEpochs makes hybrid epoch builds write their ranking arena to an
	// unlinked paged temp file and mmap it (see topk.WithHybridSpill);
	// durable collections spill next to their WAL, the rest to the OS temp
	// directory.
	SpillEpochs bool

	// SetFlags holds the flag names explicitly passed on the command line
	// (flag.Visit), for fail-fast validation of kind-specific knobs. Nil
	// skips that validation (the programmatic-construction path).
	SetFlags map[string]bool

	// Log receives startup progress and operational warnings; nil means
	// os.Stderr.
	Log io.Writer
}

func (c Config) logw() io.Writer {
	if c.Log != nil {
		return c.Log
	}
	return os.Stderr
}

// Server is the serving core: the collection registry plus the process-wide
// machinery every tenant shares (HTTP metrics, tracer, global admission
// controller, query cache).
type Server struct {
	cfg     Config
	started time.Time
	// ready gates the index-backed routes: false until every collection —
	// manifest-recovered and flag-defined — has finished building and
	// replaying. The registry is fully published before ready flips.
	ready   atomic.Bool
	metrics *serverMetrics
	tracer  *tracer

	maxBody        int64
	defaultTimeout time.Duration
	admission      *admit.Controller // global; per-collection carves split it
	cache          *qcache.Cache     // shared; keys are collection-scoped

	walRoot string // cfg.WALRoot, resolved

	// regMu guards the collection registry and the manifest bookkeeping.
	regMu       sync.RWMutex
	collections map[string]*Collection
	manifest    []manifestEntry // dynamic collections only, manifest order
	// instanceSeq makes query-cache scopes unique across drop/recreate.
	instanceSeq atomic.Uint64
}

// New validates the configuration and constructs an unready server: the
// HTTP surface can be taken from Handler immediately (probes answer, data
// routes hold 503), Run brings the collections up.
func New(cfg Config) (*Server, error) {
	if cfg.DefaultCollection == "" {
		cfg.DefaultCollection = DefaultCollectionName
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = defaultMaxBody
	}
	if cfg.Kind == "" {
		cfg.Kind = "coarse"
	}
	if err := validateCollectionName(cfg.DefaultCollection); err != nil {
		return nil, fmt.Errorf("-default-collection: %w", err)
	}
	if cfg.SetFlags != nil {
		if err := validateKindFlags(cfg.Kind, cfg.SetFlags); err != nil {
			return nil, err
		}
	}
	if cfg.Kind == "hybrid" {
		if err := validateForceBackend(cfg.ForceBackend); err != nil {
			return nil, fmt.Errorf("-force-backend: %w", err)
		}
	}
	if cfg.WALDir != "" && cfg.WALRoot != "" {
		return nil, fmt.Errorf("pass either -wal (single-collection layout) or -wal-root (multi-tenant layout), not both")
	}
	if cfg.WALDir != "" && !mutableKind(cfg.Kind) {
		return nil, fmt.Errorf("-wal applies only to mutable index kinds (have %q)", cfg.Kind)
	}
	s := &Server{
		cfg:            cfg,
		started:        time.Now(),
		metrics:        newServerMetrics(),
		tracer:         newTracer(cfg.SlowQuery, cfg.logw()),
		maxBody:        cfg.MaxBody,
		defaultTimeout: cfg.DefaultTimeout,
		admission:      newAdmission(cfg.MaxConcurrency, cfg.MaxQueue, cfg.MaxQueueWait),
		cache:          qcache.New(cfg.CacheEntries),
		walRoot:        cfg.WALRoot,
		collections:    make(map[string]*Collection),
	}
	s.registerCollectors()
	return s, nil
}

// Run listens, serves and blocks until ctx is cancelled and the server has
// drained. The listener comes up before any index builds — /healthz answers
// and /readyz holds 503 throughout bootstrap — and the data routes go live
// once every collection is recovered.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.DebugAddr != "" {
		if err := serveDebug(s.cfg.DebugAddr, s.cfg.logw()); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(s.cfg.logw(), "listening on %s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.serveUntilShutdown(ctx, srv, ln, 5*time.Second) }()

	if err := s.bootstrap(); err != nil {
		ln.Close()
		<-serveErr
		return err
	}
	s.ready.Store(true)
	fmt.Fprintf(s.cfg.logw(), "ready\n")
	return <-serveErr
}

// bootstrap builds the registry: first every manifest-recorded collection is
// recovered from its WAL directory, then the flag-defined default collection
// is built from its configured sources. Nothing is served (ready stays
// false) until all of them are up — a multi-tenant server never reports
// ready with only part of its tenants recovered.
func (s *Server) bootstrap() error {
	if s.walRoot != "" {
		if err := os.MkdirAll(s.walRoot, 0o755); err != nil {
			return err
		}
		entries, err := readManifest(manifestPath(s.walRoot))
		if err != nil {
			return err
		}
		for i := range entries {
			e := &entries[i]
			if e.Name == s.cfg.DefaultCollection {
				return fmt.Errorf("manifest lists %q, which is the flag-defined default collection", e.Name)
			}
			if e.Options.Kind == "hybrid" && validateForceBackend(e.Options.ForceBackend) != nil {
				// Written when the hybrid still built that backend. The next
				// manifest rewrite persists the cleared option.
				fmt.Fprintf(s.cfg.logw(), "collection %q: dropping forceBackend %q, which the hybrid no longer builds (have %v); routing is cost-based\n",
					e.Name, e.Options.ForceBackend, topk.HybridBackends)
				e.Options.ForceBackend = ""
			}
			c, err := s.recoverCollection(*e)
			if err != nil {
				return fmt.Errorf("recover collection %q: %w", e.Name, err)
			}
			s.publish(c)
			fmt.Fprintf(s.cfg.logw(), "collection %q: recovered %d rankings (k=%d, kind %s, %d wal records replayed)\n",
				e.Name, c.sh.Len(), c.effK(), e.Options.Kind, c.walReplayed)
		}
		s.regMu.Lock()
		s.manifest = entries
		s.regMu.Unlock()
	}
	c, err := s.buildDefaultCollection()
	if err != nil {
		return err
	}
	s.publish(c)
	return nil
}

// recoverCollection rebuilds one manifest entry from its WAL directory:
// newest checkpoint (if any) as the base — a v3 footer opens over the
// shared page file, mmapped unless -mmap=false — with the logged suffix
// replayed on top and recorded in the slot tracker, so the first incremental
// checkpoint after a restart rewrites exactly the replayed slots' pages.
func (s *Server) recoverCollection(e manifestEntry) (*Collection, error) {
	dir := filepath.Join(s.walRoot, e.Name)
	rankings, cpSeq, base, err := loadCheckpoint(dir, s.cfg.Mmap)
	if err != nil {
		return nil, err
	}
	opts := e.Options
	build := builderFor(opts.Kind, opts.MaxTheta, opts.ForceBackend, opts.Calibrate, opts.DeltaRatio, s.spillDirFor(dir))
	var sh *shard.Sharded
	if len(rankings) == 0 {
		sh, err = shard.NewEmpty(opts.Shards, build)
	} else {
		sh, err = shard.New(rankings, opts.Shards, build)
	}
	if err != nil {
		return nil, err
	}
	tr := persist.NewSlotTracker()
	if base == nil {
		// No v3 footer to checkpoint incrementally against (fresh directory
		// or a v2 base): the first checkpoint must write everything.
		tr.MarkAll()
	}
	replayed, err := recoverWAL(dir, cpSeq, sh, tr, s.cfg.logw())
	if err != nil {
		return nil, err
	}
	wlog, err := wal.Open(dir, wal.WithSyncEvery(s.cfg.WALSyncEvery), wal.WithSyncInterval(s.cfg.WALSyncInterval))
	if err != nil {
		return nil, err
	}
	c := newCollection(e.Name, s.nextCacheScope(e.Name), opts, sh, wlog, replayed, s.admission, s.cfg.MaxQueueWait)
	c.attachStorage(tr, base)
	c.created = e.Created
	return c, nil
}

// spillDirFor resolves where a collection's hybrid epochs spill: next to its
// WAL when durable, the OS temp directory otherwise, "" (no spilling) unless
// -spill-epochs is on. The WAL directory is created here because the index
// (and with it the first epoch's spill file) is built before wal.Open would
// create it — on a collection's first boot the directory does not exist yet
// and the spill would silently fall back to the heap.
func (s *Server) spillDirFor(walDir string) string {
	if !s.cfg.SpillEpochs {
		return ""
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return os.TempDir()
		}
		return walDir
	}
	return os.TempDir()
}

// buildDefaultCollection resolves the flag-defined collection exactly the
// way the single-collection server always has: WAL checkpoint beats
// -data/-load-snapshot, the logged suffix replays on top, read-only kinds
// compact tombstones away. Under -wal-root with no base source at all it
// starts empty (the pure multi-tenant deployment); without a WAL root that
// stays the classic startup error.
func (s *Server) buildDefaultCollection() (*Collection, error) {
	cfg := s.cfg
	logw := cfg.logw()
	walDir := cfg.WALDir
	if walDir == "" && s.walRoot != "" && mutableKind(cfg.Kind) {
		walDir = filepath.Join(s.walRoot, cfg.DefaultCollection)
	}
	rankings, cpSeq, base, err := loadBase(cfg.DataPath, cfg.SnapshotPath, walDir, cfg.Mmap, logw)
	switch {
	case errors.Is(err, errNoSource) && s.walRoot != "" && mutableKind(cfg.Kind):
		rankings = nil // start empty; inserts define the ranking size
	case err != nil:
		return nil, err
	}
	if !mutableKind(cfg.Kind) {
		// Read-only kinds cannot represent retired ids: compact any
		// tombstoned snapshot slots away and renumber densely.
		if compacted, dropped := dropTombstones(rankings); dropped > 0 {
			fmt.Fprintf(logw, "index kind %q is read-only: compacted %d tombstoned slots (ids renumbered)\n",
				cfg.Kind, dropped)
			rankings = compacted
		}
	}
	start := time.Now()
	build := builderFor(cfg.Kind, cfg.MaxTheta, cfg.ForceBackend, cfg.Calibrate, cfg.DeltaRatio, s.spillDirFor(walDir))
	var sh *shard.Sharded
	if len(rankings) == 0 {
		sh, err = shard.NewEmpty(cfg.Shards, build)
	} else {
		sh, err = shard.New(rankings, cfg.Shards, build)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "indexed %d rankings (k=%d) as %d %s shards in %v\n",
		sh.Len(), sh.K(), sh.NumShards(), cfg.Kind, time.Since(start).Round(time.Millisecond))

	if walDir != "" && sh.K() > maxWALRankingSize {
		// The WAL record format (and the persist checkpoint reader) cap k at
		// 255. Failing here beats dying on the first client mutation.
		return nil, fmt.Errorf("-wal supports ranking sizes up to %d, collection has k=%d", maxWALRankingSize, sh.K())
	}
	var wlog *wal.Log
	replayed := 0
	tr := persist.NewSlotTracker()
	if base == nil {
		tr.MarkAll()
	}
	if walDir != "" {
		if replayed, err = recoverWAL(walDir, cpSeq, sh, tr, logw); err != nil {
			return nil, err
		}
		if wlog, err = wal.Open(walDir, wal.WithSyncEvery(cfg.WALSyncEvery), wal.WithSyncInterval(cfg.WALSyncInterval)); err != nil {
			return nil, err
		}
		fmt.Fprintf(logw, "wal %s: replayed %d records, %d live rankings, appending to segment %d\n",
			walDir, replayed, sh.Len(), wlog.Stats().ActiveSegment)
	}
	opts := CollectionOptions{
		Kind: cfg.Kind, Shards: cfg.Shards, MaxTheta: cfg.MaxTheta,
		ForceBackend: cfg.ForceBackend, Calibrate: cfg.Calibrate, DeltaRatio: cfg.DeltaRatio,
	}
	c := newCollection(cfg.DefaultCollection, s.nextCacheScope(cfg.DefaultCollection), opts, sh, wlog, replayed, s.admission, cfg.MaxQueueWait)
	if wlog != nil {
		c.attachStorage(tr, base)
	}
	return c, nil
}

// serveUntilShutdown runs srv on ln until ctx is cancelled, then drains: it
// waits for srv.Shutdown to finish handing back every in-flight request —
// not merely for Serve to return, which happens the moment the listener
// closes, while handlers are still running — and flushes and closes every
// collection's WAL only after the last response is written, so a mutation
// acked during the drain is on disk before exit.
func (s *Server) serveUntilShutdown(ctx context.Context, srv *http.Server, ln net.Listener, drainTimeout time.Duration) error {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(s.cfg.logw(), "shutdown: %v\n", err)
		}
	}()
	err := srv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Serve failed on its own: ctx may never be cancelled, so don't wait
		// for the drain goroutine — just flush whatever the WALs hold.
		s.closeCollections()
		return err
	}
	<-drained
	return s.closeCollections()
}

// closeCollections seals every live collection (draining is trivial here:
// the HTTP server has already handed back all requests) and closes their
// WALs, reporting the first close error.
func (s *Server) closeCollections() error {
	var first error
	for _, c := range s.collectionsSnapshot() {
		if err := c.close(); err != nil && first == nil {
			first = fmt.Errorf("wal close (%s): %w", c.name, err)
		}
	}
	return first
}

// publish adds a bootstrapped collection to the registry.
func (s *Server) publish(c *Collection) {
	s.regMu.Lock()
	s.collections[c.name] = c
	s.regMu.Unlock()
}

// lookup resolves a collection name; ok=false for unknown names.
func (s *Server) lookup(name string) (*Collection, bool) {
	s.regMu.RLock()
	c, ok := s.collections[name]
	s.regMu.RUnlock()
	return c, ok
}

// collectionsSnapshot returns the live collections sorted by name.
func (s *Server) collectionsSnapshot() []*Collection {
	s.regMu.RLock()
	out := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		out = append(out, c)
	}
	s.regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// nextCacheScope mints the instance-unique query-cache scope of a new
// collection (see Collection.cacheScope).
func (s *Server) nextCacheScope(name string) string {
	return fmt.Sprintf("%s#%d", name, s.instanceSeq.Add(1))
}

// newAdmission resolves the admission-control flags into a controller.
// maxConc < 0 disables admission entirely (nil controller admits everything);
// 0 defaults to twice GOMAXPROCS — enough to keep every core busy through
// the fan-out while bounding memory and tail latency. maxQueue 0 defaults to
// four waiters per slot.
func newAdmission(maxConc, maxQueue int, maxWait time.Duration) *admit.Controller {
	if maxConc < 0 {
		return nil
	}
	if maxConc == 0 {
		maxConc = 2 * runtime.GOMAXPROCS(0)
	}
	if maxQueue == 0 {
		maxQueue = 4 * maxConc
	}
	return admit.New(int64(maxConc), maxQueue, maxWait)
}

// serveDebug starts the pprof listener: a separate address so profiling is
// never exposed on the serving port.
func serveDebug(addr string, logw io.Writer) error {
	dln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	dmux := http.NewServeMux()
	dmux.HandleFunc("/debug/pprof/", pprof.Index)
	dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(logw, "pprof listening on %s\n", dln.Addr())
	go func() {
		if err := http.Serve(dln, dmux); err != nil {
			fmt.Fprintf(logw, "pprof listener: %v\n", err)
		}
	}()
	return nil
}

// errNoSource marks the "no base data configured" condition so the
// multi-tenant bootstrap can fall back to an empty default collection while
// the classic single-collection startup keeps failing fast.
var errNoSource = errors.New("missing -data or -load-snapshot")

// pagedBase describes a v3 base checkpoint startup loaded: its footer (the
// pager's incremental baseline) and, when mmapped, the retained collection
// whose views alias the mapping.
type pagedBase struct {
	footer *persist.Footer
	pc     *persist.PagedCollection
}

// loadCheckpoint loads the newest checkpoint of a WAL directory: the slot
// array, the sequence to replay from, and — when the artifact is a v3
// footer — the paged base state. (nil, 0, nil, nil) means the directory
// holds no checkpoint. Monolithic .bin checkpoints go through the
// bounds-validated whole-file reader; v3 footers open the shared page file,
// mmapped when useMmap.
func loadCheckpoint(walDir string, useMmap bool) ([]ranking.Ranking, uint64, *pagedBase, error) {
	seq, cpPath, err := wal.LatestCheckpoint(walDir)
	if err != nil || cpPath == "" {
		return nil, 0, nil, err
	}
	if strings.HasSuffix(cpPath, persist.FooterSuffix) {
		pc, ft, err := persist.OpenPagedDir(walDir, cpPath, useMmap)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("wal checkpoint %s: %w", cpPath, err)
		}
		return pc.Slots(), seq, &pagedBase{footer: ft, pc: pc}, nil
	}
	rankings, err := persist.ReadCollectionFile(cpPath)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal checkpoint %s: %w", cpPath, err)
	}
	return rankings, seq, nil, nil
}

// loadBase resolves the collection the index is built from. With a WAL
// directory that holds a checkpoint, the checkpoint wins — it reflects every
// mutation up to its sequence, which -data/-load-snapshot predate; without
// one the usual sources apply (both may be omitted only when a checkpoint
// exists). Returns the sequence to replay the WAL from (0 = from the
// beginning) and the paged base state when the checkpoint was v3.
func loadBase(dataPath, snapPath, walDir string, useMmap bool, logw io.Writer) ([]ranking.Ranking, uint64, *pagedBase, error) {
	if walDir != "" {
		rankings, seq, base, err := loadCheckpoint(walDir, useMmap)
		if err != nil {
			return nil, 0, nil, err
		}
		if rankings != nil || base != nil || seq > 0 {
			if dataPath != "" || snapPath != "" {
				fmt.Fprintf(logw, "wal checkpoint (seq %d) supersedes -data/-load-snapshot\n", seq)
			}
			return rankings, seq, base, nil
		}
	}
	rankings, err := loadCollection(dataPath, snapPath)
	return rankings, 0, nil, err
}

// recoverWAL replays the logged mutation suffix through the shard router so
// every record lands in (and re-extends) the shard that owned it when it
// was acked, and mirrors each record into the slot tracker (tr may be nil)
// so the first checkpoint after recovery knows exactly which pages the
// replay dirtied.
func recoverWAL(walDir string, fromSeq uint64, sh *shard.Sharded, tr *persist.SlotTracker, logw io.Writer) (int, error) {
	st, err := wal.Replay(walDir, fromSeq, func(rec wal.Record) error {
		if err := sh.Apply(rec); err != nil {
			return err
		}
		if tr != nil {
			switch rec.Op {
			case wal.OpInsert:
				tr.MarkInsert(int(rec.ID))
			case wal.OpDelete:
				tr.MarkDelete(int(rec.ID))
			case wal.OpUpdate:
				tr.MarkUpdate(int(rec.ID))
			}
		}
		return nil
	})
	if err != nil {
		return st.Records, fmt.Errorf("wal recovery: %w", err)
	}
	if st.TornSegments > 0 {
		fmt.Fprintf(logw, "wal %s: discarded the torn tail of %d segment(s)\n", walDir, st.TornSegments)
	}
	return st.Records, nil
}

// loadCollection reads the collection either from a text file of rankings or
// from a persist snapshot; exactly one source must be given.
func loadCollection(dataPath, snapPath string) ([]ranking.Ranking, error) {
	switch {
	case dataPath != "" && snapPath != "":
		return nil, fmt.Errorf("pass either -data or -load-snapshot, not both")
	case snapPath != "":
		f, err := os.Open(snapPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// Version-aware: v1 snapshots load as all-live collections, v2
		// snapshots restore tombstoned slots as nil entries.
		return persist.ReadCollection(f)
	case dataPath != "":
		var r io.Reader
		if dataPath == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(dataPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		var out []ranking.Ranking
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			rk, err := topk.ParseRanking(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", len(out)+1, err)
			}
			out = append(out, rk)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, errNoSource
	}
}

// validateForceBackend rejects a forced-backend name the hybrid does not
// build; the empty name (cost-based routing) is always valid.
func validateForceBackend(name string) error {
	if name == "" || slices.Contains(topk.HybridBackends, name) {
		return nil
	}
	return fmt.Errorf("unknown hybrid backend %q (have %v)", name, topk.HybridBackends)
}

// validateKindFlags fails fast on flag combinations that would otherwise
// be silently ignored: the hybrid-planner knobs act only on -kind hybrid.
// set holds the flag names explicitly passed on the command line.
func validateKindFlags(kind string, set map[string]bool) error {
	if kind == "hybrid" {
		return nil
	}
	for _, name := range []string{"force-backend", "calibrate", "delta-ratio"} {
		if set[name] {
			return fmt.Errorf("-%s applies only to -kind hybrid (have %q)", name, kind)
		}
	}
	return nil
}

// mutableKind reports whether an index kind supports Insert/Delete/Update.
// Exactly these kinds can also represent retired (tombstoned) snapshot
// slots: their constructors all rebuild from one external-id slot array.
func mutableKind(kind string) bool {
	switch kind {
	case "hybrid", "coarse", "coarse-drop", "inverted", "inverted-drop", "merge":
		return true
	}
	return false
}

// dropTombstones removes nil (tombstoned) slots, renumbering densely.
func dropTombstones(slots []ranking.Ranking) ([]ranking.Ranking, int) {
	out := make([]ranking.Ranking, 0, len(slots))
	for _, r := range slots {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, len(slots) - len(out)
}

// builderFor returns the shard builder for an index kind name. Slot-capable
// kinds build from slots so that tombstoned snapshot entries keep their ids
// retired; the other kinds require a dense collection (see dropTombstones).
// spillDir, when non-empty, makes hybrid epoch arenas spill to mmapped paged
// files under it (see topk.WithHybridSpill).
func builderFor(kind string, maxTheta float64, force string, calibrate int, deltaRatio float64, spillDir string) shard.Builder {
	return func(rs []ranking.Ranking) (shard.Index, error) {
		switch kind {
		case "hybrid":
			opts := []topk.HybridOption{topk.WithHybridDeltaRatio(deltaRatio)}
			if force != "" {
				opts = append(opts, topk.WithForcedBackend(force))
			}
			if calibrate > 0 {
				opts = append(opts, topk.WithHybridCalibration(calibrate))
			}
			if spillDir != "" {
				opts = append(opts, topk.WithHybridSpill(spillDir))
			}
			return topk.NewHybridIndexFromSlots(rs, opts...)
		case "coarse":
			return topk.NewCoarseIndexFromSlots(rs, topk.WithAutoTune(maxTheta))
		case "coarse-drop":
			return topk.NewCoarseIndexFromSlots(rs, topk.WithThetaC(0.06), topk.WithListDropping())
		case "inverted":
			return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.FilterValidate))
		case "inverted-drop":
			return topk.NewInvertedIndexFromSlots(rs)
		case "merge":
			return topk.NewInvertedIndexFromSlots(rs, topk.WithAlgorithm(topk.ListMerge))
		case "blocked":
			return topk.NewBlockedIndex(rs)
		case "blocked-drop":
			return topk.NewBlockedIndex(rs, topk.WithBlockedDrop())
		case "bktree":
			return topk.NewMetricTree(rs, topk.BKTree)
		case "mtree":
			return topk.NewMetricTree(rs, topk.MTree)
		case "vptree":
			return topk.NewMetricTree(rs, topk.VPTree)
		default:
			return nil, fmt.Errorf("unknown index kind %q", kind)
		}
	}
}
