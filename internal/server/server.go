// Package server implements the dlserve HTTP query server: snapshot-isolated
// concurrent query serving over one Datalog program with a materialized-
// result cache.
//
// The server holds one storage.Database behind a single writer lock. Every
// write (POST /facts) loads the new facts and publishes a fresh snapshot;
// every query pins the latest published snapshot with one atomic load and
// evaluates against it without ever blocking the writer or other readers.
// Every program is planned (eval.Plan) — a single linear recursive system by
// its classification, anything else generically — and answered through
// eval.ResultCache, keyed by (program, query, epoch): repeated queries of a
// quiet database cost one cache probe, identical concurrent cold queries
// collapse into one fixpoint (singleflight), and a write automatically
// invalidates by advancing the epoch.
//
// A query is one pipeline whoever asks (query.go): open parses, validates,
// pins the snapshot and opens a row source — the cached relation, an
// evaluation materialised through the cache, or for limit/stream requests a
// streaming evaluation that never fills it; drain pulls the rows out and
// summarises the evaluation once. The consumers differ only in what they do
// with a row and with the summary: append (Server.Query, the JSON body),
// callback (Server.StreamQuery), encode and flush (NDJSON).
//
// Around the two handlers (http.go) one request envelope gives every /query
// and /facts request, also one rejected before any work, a correlation ID
// (X-Request-Id in, or generated; out in the response header, request_id in
// the body and the NDJSON header/done lines, the journal and the log), a
// capped body and one structured log line (Config.Logger). One outcome
// table maps how a request ended to its error class, HTTP status, log
// level and counter.
//
// Endpoints (on top of the obs mux's /metrics, /statz, /debug/vars,
// /debug/pprof/):
//
//	GET  /query?q=?- p(a, Y).   answer one query (POST {"query": ...} too);
//	                            &limit=N caps the answers, &stream=1 answers
//	                            as NDJSON, &trace=1 adds the span tree
//	POST /facts                 load "pred(a, b)." lines, advance the epoch
//	GET  /healthz               liveness plus epoch and cache footprint
//	GET  /readyz                readiness: 503 + reason until the startup
//	                            snapshot is published and the plan warms
//	GET  /debug/queries         query journal: in-flight, recent, slow
//	GET  /debug/queries/slow    the slow ring alone
package server

import (
	"cmp"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// Server metric names, alongside the engine metrics in the same registry.
// The outcome table (http.go) says which error counter a request moves.
const (
	mQueries      = "dl_server_queries_total"
	mErrors       = "dl_server_errors_total"
	mClientErrors = "dl_server_client_errors_total"
	mInflight     = "dl_server_inflight_queries"
	mQueryDur     = "dl_server_query_duration_seconds"
	mEvalDur      = "dl_server_eval_duration_seconds"
	// mRowsStreamed counts answer rows delivered through the streaming path
	// (NDJSON responses and limit'ed JSON responses).
	mRowsStreamed = "dl_query_rows_streamed_total"
	// mEarlyTerm counts streamed queries that stopped before exhausting
	// their answer set — a limit was satisfied mid-evaluation.
	mEarlyTerm = "dl_query_early_terminations_total"
	// mCanceled counts queries abandoned by their client mid-evaluation.
	mCanceled = "dl_server_canceled_queries_total"
)

// durBuckets covers query latencies from 10µs to 10s.
var durBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2.5, 5, 10}

// DefaultMaxFactsBytes caps a POST /facts body when Config.MaxFactsBytes is
// zero: large enough for bulk loads, small enough that a runaway client
// cannot exhaust memory through io.ReadAll.
const DefaultMaxFactsBytes = 8 << 20

// DefaultMaxQueryBytes caps a POST /query body when Config.MaxQueryBytes is
// zero. Queries are single lines; a megabyte is already generous.
const DefaultMaxQueryBytes = 1 << 20

// DefaultSlowQueryThreshold gates the journal's slow ring when
// Config.SlowQueryThreshold is zero: cache hits and small fixpoints never
// land there, anything a human would call slow does.
const DefaultSlowQueryThreshold = 250 * time.Millisecond

// Config tunes a Server. The zero value works: default cache budget, a
// fresh registry, incremental maintenance on.
type Config struct {
	// Registry receives the server and engine metrics; nil means a new
	// isolated registry (obs.Default() shares process-wide counters).
	Registry *obs.Registry
	// CacheBytes is the result-cache budget; 0 means
	// eval.DefaultResultCacheBytes.
	CacheBytes int64
	// MaxFactsBytes caps the POST /facts request body; 0 means
	// DefaultMaxFactsBytes, negative means no limit.
	MaxFactsBytes int64
	// MaxQueryBytes caps the POST /query request body; 0 means
	// DefaultMaxQueryBytes, negative means no limit.
	MaxQueryBytes int64
	// disableMaintenance turns off the result cache's incremental
	// maintenance pass on writes (every write then cold-starts the cache):
	// a test seam that pins the cold-start behaviour.
	disableMaintenance bool
	// JournalSize caps the query journal's recent and slow rings; 0 means
	// obs.DefaultJournalSize, negative disables the journal entirely (the
	// /debug/queries endpoints then serve empty lists).
	JournalSize int
	// SlowQueryThreshold is the wall-clock latency at which a completed
	// query also enters the journal's always-retained slow ring; 0 means
	// DefaultSlowQueryThreshold, negative disables the slow ring.
	SlowQueryThreshold time.Duration
	// TraceSampleRate attaches a full span tree to 1 in every N requests'
	// journal records (the first of each window); 0 disables sampling.
	// Unsampled requests keep the nil-tracer zero-allocation path.
	TraceSampleRate int
	// Logger, when non-nil, receives one structured line per request
	// (queries and fact writes). The handler's level decides what is kept;
	// nil disables request logging.
	Logger *slog.Logger
	// HoldReady starts the server unready: /readyz answers 503 until
	// MarkReady is called. dlserve uses it to gate readiness on the startup
	// bulk fact load; the zero value is ready as soon as New returns (the
	// seed snapshot is published synchronously).
	HoldReady bool
}

// Server serves one Datalog program over HTTP. Safe for any number of
// concurrent requests: queries share pinned snapshots, writes serialize on
// an internal writer lock.
type Server struct {
	cfg Config // as given to New, defaults resolved

	wmu  sync.Mutex // guards db writes and snapshot publication
	db   *storage.Database
	snap atomic.Pointer[storage.Snapshot]

	src     eval.Source          // the program's rules, as the planner and the result cache take them
	key     string               // eval.SystemKey(src): the result-cache key, rendered once
	sys     *ast.RecursiveSystem // src, when the program is one linear system; else nil
	arities map[string]int       // every predicate the program source mentions; read-only

	planner *eval.Planner
	cache   *eval.ResultCache
	journal *obs.Journal
	sampler *obs.Sampler
	// idBase prefixes generated request IDs (a per-process hex stamp and a
	// dash), so IDs from different server lifetimes never collide in logs.
	idBase string
	idSeq  atomic.Uint64

	// ready gates /readyz; warmOnce/warmErr memoize the one-shot plan
	// compile check (ready means the serving plan compiles, not just "up").
	ready    atomic.Bool
	warmOnce sync.Once
	warmErr  error

	queries, errors, clientErrors, canceled *obs.Counter
	rowsStreamed, earlyTerm                 *obs.Counter
	inflight                                *obs.Gauge
	queryDur, evalDur                       *obs.Histogram
}

// New builds a Server from Datalog source: rules define the program, facts
// in the source seed the database, and queries in the source are rejected —
// they arrive over HTTP.
func New(src string, cfg Config) (*Server, error) {
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(queries) > 0 {
		return nil, fmt.Errorf("server: program source contains a query (%v); send queries to /query instead", queries[0])
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("server: program has no rules")
	}
	arities, err := prog.Arities()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	cfg.MaxFactsBytes = cmp.Or(cfg.MaxFactsBytes, DefaultMaxFactsBytes)
	cfg.MaxQueryBytes = cmp.Or(cfg.MaxQueryBytes, DefaultMaxQueryBytes)
	reg := cfg.Registry
	s := &Server{
		cfg:     cfg,
		db:      storage.NewDatabase(),
		src:     &ast.Program{Rules: prog.Rules},
		arities: arities,
		planner: eval.NewPlannerWith(reg),
		cache:   eval.NewResultCacheWith(reg, cfg.CacheBytes),
		sampler: obs.NewSampler(cfg.TraceSampleRate),
		idBase:  fmt.Sprintf("%08x-", uint32(time.Now().UnixNano())),

		queries:      reg.Counter(mQueries),
		errors:       reg.Counter(mErrors),
		clientErrors: reg.Counter(mClientErrors),
		rowsStreamed: reg.Counter(mRowsStreamed),
		earlyTerm:    reg.Counter(mEarlyTerm),
		canceled:     reg.Counter(mCanceled),
		inflight:     reg.Gauge(mInflight),
		queryDur:     reg.Histogram(mQueryDur, durBuckets),
		evalDur:      reg.Histogram(mEvalDur, durBuckets),
	}
	if cfg.JournalSize >= 0 {
		s.journal = obs.NewJournal(cfg.JournalSize, cmp.Or(cfg.SlowQueryThreshold, DefaultSlowQueryThreshold))
	}
	if sys, err := ast.SystemOf(s.src.Program()); err == nil {
		s.sys, s.src = sys, sys
	}
	s.key = eval.SystemKey(s.src)
	for _, f := range prog.Facts {
		names := make([]string, len(f.Args))
		for i, t := range f.Args {
			names[i] = t.Name
		}
		if _, err := s.db.Insert(f.Pred, names...); err != nil {
			return nil, err
		}
	}
	s.snap.Store(s.db.Snapshot())
	s.ready.Store(!cfg.HoldReady)
	return s, nil
}

// MarkReady flips /readyz to 200. Servers built without Config.HoldReady
// are ready as soon as New returns; dlserve calls this after its startup
// bulk fact load so load balancers never route to a half-loaded database.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Journal returns the server's query journal (nil when disabled).
func (s *Server) Journal() *obs.Journal { return s.journal }

// LoadFacts inserts "pred(a, b)." lines and publishes a fresh snapshot.
// The batch is atomic: it is parsed and arity-checked in full — against
// itself, the program's arities and the live database — before the first
// insert, so a bad line leaves the database, the epoch and the cache exactly
// as they were. After the inserts the result cache's maintenance pass
// carries the previous epoch's entries forward (unless disabled), and only
// then is the new snapshot published, so readers never cold-start.
func (s *Server) LoadFacts(src string) (uint64, error) {
	epoch, _, _, err := s.loadFacts(src)
	return epoch, err
}

// loadFacts is LoadFacts plus the write-path observability payload: the
// maintenance pass's outcome and duration, which the /facts handler logs
// (maintained vs recomputed entries is the one number that says whether a
// write was cheap or cold-started the cache).
func (s *Server) loadFacts(src string) (uint64, eval.MaintResult, time.Duration, error) {
	var mres eval.MaintResult
	facts, err := storage.ScanFacts(src)
	if err != nil {
		return s.snap.Load().Epoch(), mres, 0, &clientError{http.StatusBadRequest, err}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	arities := make(map[string]int)
	for _, f := range facts {
		want, seen := arities[f.Pred]
		if !seen {
			want, seen = s.arities[f.Pred]
		}
		if !seen {
			if r := s.db.Rel(f.Pred); r != nil {
				want, seen = r.Arity(), true
			}
		}
		if seen && want != len(f.Args) {
			return s.db.Epoch(), mres, 0, clientErrf(
				"fact %s/%d conflicts with arity %d; no facts from this batch were loaded",
				f.Pred, len(f.Args), want)
		}
		arities[f.Pred] = len(f.Args)
	}
	old := s.snap.Load()
	for _, f := range facts {
		if _, err := s.db.Insert(f.Pred, f.Args...); err != nil {
			// Unreachable after validation; surface it rather than hide it.
			return s.db.Epoch(), mres, 0, err
		}
	}
	snap := s.db.Snapshot()
	var maintDur time.Duration
	if !s.cfg.disableMaintenance && snap != old {
		t0 := time.Now()
		mres = s.cache.Maintain(old, snap, eval.MaintSpec{Planner: s.planner, Sys: s.src, Opts: s.evalOpts(nil, nil)})
		maintDur = time.Since(t0)
	}
	s.snap.Store(snap)
	return snap.Epoch(), mres, maintDur, nil
}

// evalOpts is the server's configuration as the engines take it, plus the
// request's tracer and cancellation (both nil outside a request).
func (s *Server) evalOpts(tracer *obs.Tracer, abort <-chan struct{}) eval.Opts {
	return eval.Opts{Metrics: s.cfg.Registry, Tracer: tracer, Abort: abort}
}

// Snapshot returns the latest published snapshot.
func (s *Server) Snapshot() *storage.Snapshot { return s.snap.Load() }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// Cache returns the server's result cache.
func (s *Server) Cache() *eval.ResultCache { return s.cache }

// handleHealth is pure liveness: the process is up and can answer HTTP.
// Routing decisions belong to /readyz — a live server may still be loading
// its initial facts.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"epoch":         s.snap.Load().Epoch(),
		"cache_entries": s.cache.Len(),
		"cache_bytes":   s.cache.Bytes(),
	})
}

// handleReady is readiness: 200 only once the startup snapshot is fully
// published (MarkReady after any HoldReady bulk load) and the served
// system's plan compiles. Before that it answers 503 with a JSON reason,
// so load balancers and orchestration probes keep traffic away.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	notReady := func(reason string) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
	}
	if !s.ready.Load() {
		notReady("startup fact load in progress; latest snapshot not yet published")
		return
	}
	s.warmOnce.Do(s.warmPlan)
	if s.warmErr != nil {
		notReady("plan compilation failed: " + s.warmErr.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "epoch": s.snap.Load().Epoch()})
}

// warmPlan compiles the served system's all-free plan once, so a program
// that fails to classify or compile keeps readiness at 503. Plans are keyed
// by adornment: only an all-free query reuses the one it caches.
func (s *Server) warmPlan() {
	if s.sys == nil {
		return // no one predicate to warm; the first query of each form compiles its plan
	}
	q := ast.Query{Atom: s.sys.Recursive.Head} // distinct variables: the all-free form
	snap := s.snap.Load()
	_, _, s.warmErr = s.planner.PlanForEpoch(s.src, q, snap.Epoch(), snap.DB(), s.evalOpts(nil, nil))
}
