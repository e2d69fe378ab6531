// Package server is the reusable serving core of topkserve: a multi-tenant
// registry of named collections — each one a rank-augmented inverted index
// (invindex.Mutable) with its own write-ahead log, admission weight,
// query-cache scope and counters — behind one HTTP surface.
//
// Lifecycle routes manage tenants (PUT/DELETE/GET /collections/{name},
// GET /collections); data routes are rooted per collection
// (/c/{name}/search, /knn, /insert, ...), with the classic single-collection
// routes (/search, /knn, ...) kept as aliases for the default collection so
// existing clients keep working unchanged. Durability is rooted at one WAL
// directory tree: a subdirectory per collection plus a CRC-checked MANIFEST
// from which every dynamically created tenant is recovered on restart.
//
// Every collection — flag-defined, manifest-recovered or created over HTTP —
// comes up through one function, openCollection, and the only snapshot
// format anything here reads or writes is persist's paged v3: -load-snapshot
// files, GET /snapshot, and the incremental checkpoints in a WAL directory. A
// legacy "TKRK" snapshot or checkpoint-<seq>.bin is a typed startup error
// that names the file and the offline migration command.
//
// cmd/topkserve reduces to flag parsing plus server.New(cfg).Run(ctx).
package server

import (
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/admit"
	"topk/internal/invindex"
	"topk/internal/persist"
	"topk/internal/qcache"
	"topk/internal/ranking"
	"topk/internal/wal"
)

// defaultMaxBody bounds request bodies when -max-body is not given.
const defaultMaxBody = 16 << 20

// DefaultCollectionName names the flag-defined collection when the operator
// does not pick one.
const DefaultCollectionName = "default"

// Config carries every knob of the serving core; cmd/topkserve maps its
// flags onto it one to one. A zero value means the flag default, except
// where a field says what its zero means: a programmatically built Config
// gets those zero meanings, not the flag defaults.
type Config struct {
	Addr string // listen address ("" = any free port; the -addr default is :8080)

	// Seed of the default collection: text collection (- = stdin) or v3
	// snapshot; at most one. Not read when its WAL directory holds a
	// checkpoint.
	DataPath     string
	SnapshotPath string

	// DefaultCollection names the collection the single-collection routes
	// alias to; empty means DefaultCollectionName. It is flag-defined:
	// rebuilt from Data/Snapshot/its WAL on every start, never listed in the
	// manifest, and not droppable over HTTP.
	DefaultCollection string

	Kind string // index kind of the default collection ("" = hybrid)
	// DeltaRatio is the tombstone fraction above which a delete or update
	// compacts the collection's index, on every kind. 0 disables compaction; the
	// -delta-ratio default is invindex.DefaultCompactionRatio (0.25).
	DeltaRatio float64

	MaxBody int64 // request-body bound, bytes (0 = 16 MiB)

	// WALDir is the single-collection layout (-wal): the default
	// collection's log lives directly in this directory and no other
	// collection is durable. WALRoot (-wal-root) is the multi-tenant layout:
	// one subdirectory per collection plus the MANIFEST; dynamically created
	// collections are durable and recovered on restart. At most one of the
	// two may be set; walDirFor is the whole difference.
	WALDir  string
	WALRoot string
	// WALSyncEvery fsyncs the log after every n-th mutation. 0 means no
	// count-based fsync (only WALSyncInterval and shutdown sync); the
	// -wal-sync-every default is 1, a synchronous commit.
	WALSyncEvery    int
	WALSyncInterval time.Duration // background fsync period (0 disables)

	SlowQuery      time.Duration // slow-query log threshold (0 disables)
	DebugAddr      string        // separate pprof listener (empty disables)
	DefaultTimeout time.Duration // per-request /search|/knn deadline

	// Admission control (shared across collections; per-collection weights
	// carve slices out of this capacity).
	MaxConcurrency int // 0 = 2x GOMAXPROCS, negative disables
	MaxQueue       int // 0 = 4x effective MaxConcurrency
	// MaxQueueWait bounds how long a queued request waits for a slot. 0
	// waits as long as the request's own deadline allows; the
	// -max-queue-wait default is 1s.
	MaxQueueWait time.Duration

	CacheEntries int // query-result cache capacity (0 disables)

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
	metrics serverMetrics
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
		cfg.Kind = "hybrid"
	}
	if err := validateCollectionName(cfg.DefaultCollection); err != nil {
		return nil, fmt.Errorf("-default-collection: %w", err)
	}
	if err := validateKind(cfg.Kind); err != nil {
		return nil, fmt.Errorf("-kind: %w", err)
	}
	if cfg.WALDir != "" && cfg.WALRoot != "" {
		return nil, fmt.Errorf("pass either -wal (single-collection layout) or -wal-root (multi-tenant layout), not both")
	}
	s := &Server{
		cfg:            cfg,
		started:        time.Now(),
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
// comes up from its checkpoint or its configured seed. Nothing is served
// (ready stays false) until all of them are up — a multi-tenant server never
// reports ready with only part of its tenants recovered.
func (s *Server) bootstrap() error {
	cfg := s.cfg
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
			if e.Name == cfg.DefaultCollection {
				return fmt.Errorf("manifest lists %q, which is the flag-defined default collection", e.Name)
			}
			retireStaleOptions(e, cfg)
			// An entry of a kind other than hybrid was written without a
			// deltaRatio, which was hybrid-only: it compacts at the server's.
			e.Options.CollectionOptions = e.Options.withDefaults(cfg)
			c, err := s.openCollection(e.Name, e.Options.CollectionOptions, s.walDirFor(e.Name), nil)
			if err != nil {
				return fmt.Errorf("recover collection %q: %w", e.Name, err)
			}
			c.created = e.Created
			s.publish(c)
		}
		s.regMu.Lock()
		s.manifest = entries
		s.regMu.Unlock()
	}

	// The flag-defined collection: its seed is -data/-load-snapshot; under
	// -wal-root it may also start empty (the pure multi-tenant deployment),
	// everywhere else a missing seed stays a startup error.
	walDir := s.walDirFor(cfg.DefaultCollection)
	seed := func() (seedRows, error) {
		rows, err := loadSeed(cfg.DataPath, cfg.SnapshotPath)
		if errors.Is(err, errNoSource) && s.walRoot != "" {
			return seedRows{}, nil
		}
		return rows, err
	}
	opts := CollectionOptions{Kind: cfg.Kind, DeltaRatio: cfg.DeltaRatio}
	c, err := s.openCollection(cfg.DefaultCollection, opts, walDir, seed)
	if err != nil {
		return err
	}
	s.publish(c)
	return nil
}

// retireStaleOptions rewrites what a manifest entry names that this server no
// longer builds, with one log line each; the next manifest write persists the
// rewrite. A kind that is not served recovers as hybrid over the same slots:
// only this server writes the manifest, and it validated every kind at
// create, so such a name is one it served once (the coarse kinds from before
// topkserve narrowed to the inverted family). A forced backend — any name,
// since the server no longer forces one — is cleared: every query is then
// answered by inverted.
func retireStaleOptions(e *manifestEntry, cfg Config) {
	if e.Options.Kind != "" && validateKind(e.Options.Kind) != nil {
		fmt.Fprintf(cfg.logw(), "collection %q: recovering kind %q, which is no longer served, as hybrid over the same slots\n",
			e.Name, e.Options.Kind)
		e.Options.Kind = "hybrid"
	}
	if e.Options.ForceBackend != "" {
		fmt.Fprintf(cfg.logw(), "collection %q: dropping forceBackend %q, which the server no longer forces; every query is answered by inverted\n",
			e.Name, e.Options.ForceBackend)
		e.Options.ForceBackend = ""
	}
}

// walDirFor maps a collection name to its WAL directory, "" when it has none.
// This is all that separates the two layouts: -wal-root gives every
// collection a subdirectory (and keeps the MANIFEST beside them), -wal puts
// the default collection's log directly in the directory and makes no other
// collection durable.
func (s *Server) walDirFor(name string) string {
	switch {
	case s.walRoot != "":
		return filepath.Join(s.walRoot, name)
	case name == s.cfg.DefaultCollection:
		return s.cfg.WALDir
	}
	return ""
}

// seedRows is what a collection is built over: a loaded v3 snapshot or
// checkpoint, whose rows are already in a store, or else a slot array (a
// text file; none starts empty).
type seedRows struct {
	pc    *persist.PagedCollection
	slots []ranking.Ranking
}

// index builds the collection's index over the rows.
func (r seedRows) index(opts CollectionOptions, alg invindex.Algorithm) (*invindex.Mutable, error) {
	if r.pc != nil {
		return invindex.NewMutableFromStore(r.pc.Store(), r.pc.IDs(), r.pc.Layout().Slots, opts.K, alg, opts.DeltaRatio)
	}
	return invindex.NewMutable(r.slots, opts.K, alg, opts.DeltaRatio)
}

// openCollection is the one way a collection comes up — flag-defined,
// manifest-recovered or created over HTTP. The newest checkpoint in walDir is
// the base (a v3 footer over the shared page file, every page checksum
// verified as its rows are copied into the store the index is built over);
// without one the seed is (nil: start empty). The logged suffix replays on
// top, then the log opens a fresh segment. The pager is seeded with the base
// footer, so the first checkpoint after a restart writes only the pages the
// replay changed. walDir "" means an in-memory collection: seed, build,
// done. The start-up line times the load (read, verify, copy) apart from the
// index build (check, build). The collection is returned unpublished.
func (s *Server) openCollection(name string, opts CollectionOptions, walDir string, seed func() (seedRows, error)) (*Collection, error) {
	logw := s.cfg.logw()
	var (
		rows  seedRows
		st    storage
		cpSeq uint64 // 0 without a checkpoint: replay from the beginning
		prev  *persist.Footer
		err   error
	)
	alg, err := kindAlgorithm(opts.Kind)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if walDir != "" {
		// Created here, not by wal.Open below: the index is built before the
		// log opens.
		if err = os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		var cpPath string
		if cpSeq, cpPath, err = wal.LatestCheckpoint(walDir); err != nil {
			return nil, migrationHint(err)
		}
		if cpPath != "" {
			if rows.pc, prev, err = persist.OpenPagedDir(walDir, cpPath, false); err != nil {
				return nil, fmt.Errorf("wal checkpoint %s: %w", cpPath, err)
			}
			if seed != nil {
				fmt.Fprintf(logw, "collection %q: wal checkpoint (seq %d) is the base; -data/-load-snapshot are not read\n", name, cpSeq)
			}
		}
	}
	if prev == nil && seed != nil {
		if rows, err = seed(); err != nil {
			return nil, err
		}
	}

	loaded := time.Since(start)
	idx, err := rows.index(opts, alg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "collection %q: loaded %d rankings in %v, indexed in %v (k=%d, %s)\n",
		name, idx.Len(), loaded.Round(time.Millisecond), (time.Since(start) - loaded).Round(time.Millisecond), idx.K(), opts.Kind)

	if walDir != "" {
		if st.walReplayed, err = recoverWAL(walDir, cpSeq, idx, logw); err != nil {
			return nil, err
		}
		if st.wal, err = wal.Open(walDir, wal.WithSyncEvery(s.cfg.WALSyncEvery), wal.WithSyncInterval(s.cfg.WALSyncInterval)); err != nil {
			return nil, err
		}
		st.pager = persist.NewPager(walDir, prev)
		fmt.Fprintf(logw, "collection %q: wal %s: replayed %d records from segment %d on, %d live rankings, appending to segment %d\n",
			name, walDir, st.walReplayed, cpSeq, idx.Len(), st.wal.Stats().ActiveSegment)
	}
	return s.newCollection(name, opts, idx, st), nil
}

// migrationHint appends the offline migration command to the typed errors a
// legacy artifact produces (each already names its file).
func migrationHint(err error) error {
	if errors.Is(err, persist.ErrLegacyFormat) || errors.Is(err, wal.ErrLegacyCheckpoint) {
		return fmt.Errorf("%w; the server reads only snapshot v3 — convert the file offline with `topkquery -load-snapshot OLD -save-snapshot NEW.v3` (ids and tombstones are kept; a converted checkpoint is passed as -load-snapshot once the .bin is out of the WAL directory)", err)
	}
	return err
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
// 0 defaults to twice GOMAXPROCS — enough to keep every core busy while
// bounding memory and tail latency. maxQueue 0 defaults to
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

// recoverWAL replays the logged mutation suffix through applyRecord, the
// live write path. An insert takes the next id of the slot array, the id it
// was acked with when the same slots were live — under any shard count an
// older server ran, since its inserts always extended the open-ended range
// of its last shard. Any other id means the log does not continue the base
// it is replayed onto (wrong base snapshot, or acked records lost to mid-log
// corruption), and recovery fails rather than serve diverged ids.
func recoverWAL(walDir string, fromSeq uint64, idx *invindex.Mutable, logw io.Writer) (int, error) {
	st, err := wal.Replay(walDir, fromSeq, func(rec wal.Record) error {
		id, err := applyRecord(idx, rec)
		if err != nil {
			return err
		}
		if id != rec.ID {
			return fmt.Errorf("replayed insert got id %d, want %d (wal does not continue this snapshot)", id, rec.ID)
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

// loadSeed reads the flag-defined collection's seed: a text file of rankings
// or a v3 snapshot, every page checksum verified as its rows are copied into
// a store; exactly one source must be given.
func loadSeed(dataPath, snapPath string) (seedRows, error) {
	switch {
	case dataPath != "" && snapPath != "":
		return seedRows{}, fmt.Errorf("pass either -data or -load-snapshot, not both")
	case snapPath != "":
		pc, err := persist.OpenPagedFile(snapPath)
		if err != nil {
			return seedRows{}, migrationHint(fmt.Errorf("-load-snapshot %s: %w", snapPath, err))
		}
		return seedRows{pc: pc}, nil
	case dataPath != "":
		slots, err := ranking.ReadTextFile(dataPath)
		return seedRows{slots: slots}, err
	default:
		return seedRows{}, errNoSource
	}
}

// servedKinds is the one table of the kinds a collection can be, in -kind
// help order: each is invindex.Mutable under one range algorithm, and all
// answer the same. hybrid is the default and the name the other kinds of
// older servers recover as.
var servedKinds = []struct {
	name string
	alg  invindex.Algorithm
}{
	{"hybrid", invindex.FilterValidateDrop},
	{"inverted", invindex.FilterValidate},
	{"inverted-drop", invindex.FilterValidateDrop},
	{"merge", invindex.ListMerge},
}

// KindNames joins the served kind names with "|" — the spelling of flag help
// and error texts.
func KindNames() string {
	names := make([]string, len(servedKinds))
	for i, k := range servedKinds {
		names[i] = k.name
	}
	return strings.Join(names, "|")
}

// kindAlgorithm returns the range algorithm of a served kind, and an error
// naming the served kinds for any other.
func kindAlgorithm(kind string) (invindex.Algorithm, error) {
	for _, k := range servedKinds {
		if k.name == kind {
			return k.alg, nil
		}
	}
	return 0, fmt.Errorf("index kind %q is not served (want one of %s)", kind, KindNames())
}

// validateKind rejects an index kind the server does not serve.
func validateKind(kind string) error {
	_, err := kindAlgorithm(kind)
	return err
}
