// Package server implements the dlserve HTTP query server: snapshot-isolated
// concurrent query serving over one Datalog program with a materialized-
// result cache.
//
// The server holds one storage.Database behind a single writer lock. Every
// write (POST /facts) loads the new facts and publishes a fresh snapshot;
// every query pins the latest published snapshot with one atomic load and
// evaluates against it without ever blocking the writer or other readers.
// Answers are served through eval.ResultCache, keyed by (program, query,
// epoch): repeated queries of a quiet database cost one cache probe, iden-
// tical concurrent cold queries collapse into one fixpoint (singleflight),
// and a write automatically invalidates by advancing the epoch.
//
// Endpoints (on top of the obs mux's /metrics, /statz, /debug/vars,
// /debug/pprof/):
//
//	GET  /query?q=?- p(a, Y).   answer one query (POST {"query": ...} too)
//	POST /facts                 load "pred(a, b)." lines, advance the epoch
//	GET  /healthz               liveness plus epoch and cache footprint
//	GET  /readyz                readiness: 503 + reason until the startup
//	                            snapshot is published and the plan warms
//	GET  /debug/queries         query journal: in-flight, recent, slow
//	GET  /debug/queries/slow    the slow ring alone
//
// Add &trace=1 to /query to receive the evaluation's span tree in the
// response (per-query tracing, the HTTP form of dlrun -trace-json).
//
// Every request carries a correlation ID — accepted from the client's
// X-Request-Id header or generated — echoed in the response header, the
// JSON body (request_id), the NDJSON header/done lines, the query journal
// and the structured request log (Config.Logger, one log/slog JSON line
// per request).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// Server metric names, alongside the engine metrics in the same registry.
// dl_server_errors_total counts engine-side (5xx) failures only; malformed
// requests count into dl_server_client_errors_total, so an alert on the
// error counter never pages for a client typo.
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
	// mCanceled counts queries abandoned by their client (request context
	// canceled before the evaluation finished).
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
// Config.SlowQueryThreshold is zero: long enough that cache hits and small
// fixpoints never land there, short enough that anything a human would
// call slow does.
const DefaultSlowQueryThreshold = 250 * time.Millisecond

// Config tunes a Server. The zero value works: default cache budget,
// GOMAXPROCS workers, a fresh registry, incremental maintenance on.
type Config struct {
	// Registry receives the server and engine metrics; nil means a new
	// isolated registry (obs.Default() shares process-wide counters).
	Registry *obs.Registry
	// CacheBytes is the result-cache budget; 0 means
	// eval.DefaultResultCacheBytes.
	CacheBytes int64
	// Workers is handed to eval.Opts.Workers for the parallel engine.
	Workers int
	// Shards is handed to eval.Opts.Shards: >= 2 hash-shards every
	// fixpoint into that many shards, 0 and 1 both mean unsharded.
	Shards int
	// MaxFactsBytes caps the POST /facts request body; 0 means
	// DefaultMaxFactsBytes, negative means no limit.
	MaxFactsBytes int64
	// MaxQueryBytes caps the POST /query request body; 0 means
	// DefaultMaxQueryBytes, negative means no limit.
	MaxQueryBytes int64
	// DisableMaintenance turns off the result cache's incremental
	// maintenance pass on writes (every write then cold-starts the cache).
	// Used by benchmarks to measure the maintained/cold gap.
	DisableMaintenance bool
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
	wmu  sync.Mutex // guards db writes and snapshot publication
	db   *storage.Database
	snap atomic.Pointer[storage.Snapshot]

	sys     *ast.RecursiveSystem // non-nil when the program is one linear system
	prog    *ast.Program         // rules only, for the generic fallback path
	progKey string

	planner  *eval.Planner
	cache    *eval.ResultCache
	reg      *obs.Registry
	workers  int
	shards   int
	maxFacts int64
	maxQuery int64
	maintain bool

	journal *obs.Journal
	sampler *obs.Sampler
	log     *slog.Logger
	// idBase prefixes generated request IDs (a per-process hex stamp), so
	// IDs from different server lifetimes never collide in aggregated logs.
	idBase string
	idSeq  atomic.Uint64

	// ready gates /readyz; warmOnce/warmErr memoize the one-shot plan
	// compile check (readiness means the serving plan is warm-able, not
	// just that the process is up).
	ready    atomic.Bool
	warmOnce sync.Once
	warmErr  error

	queries, errors, clientErrors *obs.Counter
	rowsStreamed, earlyTerm       *obs.Counter
	canceled                      *obs.Counter
	inflight                      *obs.Gauge
	queryDur                      *obs.Histogram
	evalDur                       *obs.Histogram
}

// clientError marks a failure caused by the request itself (malformed
// facts, bad query, oversized body): reported as 4xx and counted into
// dl_server_client_errors_total instead of dl_server_errors_total.
type clientError struct{ err error }

func (e *clientError) Error() string { return e.err.Error() }
func (e *clientError) Unwrap() error { return e.err }

func clientErrf(format string, args ...any) error {
	return &clientError{err: fmt.Errorf(format, args...)}
}

// New builds a Server from Datalog source: rules define the program (facts
// in the source seed the database). Programs forming a single linear
// recursive system get the classification-driven planner; anything else is
// answered by the parallel semi-naive engine. Queries in the source are
// rejected — they arrive over HTTP.
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
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxFacts := cfg.MaxFactsBytes
	if maxFacts == 0 {
		maxFacts = DefaultMaxFactsBytes
	}
	maxQuery := cfg.MaxQueryBytes
	if maxQuery == 0 {
		maxQuery = DefaultMaxQueryBytes
	}
	var journal *obs.Journal
	if cfg.JournalSize >= 0 {
		thresh := cfg.SlowQueryThreshold
		if thresh == 0 {
			thresh = DefaultSlowQueryThreshold
		}
		journal = obs.NewJournal(cfg.JournalSize, thresh)
	}
	s := &Server{
		db:       storage.NewDatabase(),
		prog:     &ast.Program{Rules: prog.Rules},
		planner:  eval.NewPlannerWith(reg),
		cache:    eval.NewResultCacheWith(reg, cfg.CacheBytes),
		reg:      reg,
		workers:  cfg.Workers,
		shards:   cfg.Shards,
		maxFacts: maxFacts,
		maxQuery: maxQuery,
		maintain: !cfg.DisableMaintenance,

		journal: journal,
		sampler: obs.NewSampler(cfg.TraceSampleRate),
		log:     cfg.Logger,
		idBase:  fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),

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
	if sys, err := systemOf(s.prog); err == nil {
		s.sys = sys
	}
	var b strings.Builder
	for i, r := range prog.Rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
	}
	s.progKey = b.String()
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

// systemOf extracts the single linear recursive system from the program
// (one recursive rule, rest exit rules for the same head).
func systemOf(prog *ast.Program) (*ast.RecursiveSystem, error) {
	var rec *ast.Rule
	var exits []ast.Rule
	for i := range prog.Rules {
		r := prog.Rules[i]
		if len(r.RecursiveAtoms()) > 0 {
			if rec != nil {
				return nil, fmt.Errorf("multiple recursive rules")
			}
			rec = &prog.Rules[i]
		} else {
			exits = append(exits, r)
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("no recursive rule")
	}
	for _, e := range exits {
		if e.Head.Pred != rec.Head.Pred {
			return nil, fmt.Errorf("rule %v is not an exit rule for %s", e, rec.Head.Pred)
		}
	}
	return ast.NewRecursiveSystem(*rec, exits...)
}

// LoadFacts inserts "pred(a, b)." lines and publishes a fresh snapshot.
// The batch is atomic: it is parsed and arity-checked in full — against
// itself and against the live database — before the first insert, so a bad
// line midway through leaves the database, the epoch and the cache exactly
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
		return s.snap.Load().Epoch(), mres, 0, &clientError{err: err}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	arities := make(map[string]int)
	for _, f := range facts {
		want, seen := arities[f.Pred]
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
	if s.maintain && snap != old {
		t0 := time.Now()
		mres = s.cache.Maintain(old, snap, eval.MaintSpec{
			Planner: s.planner,
			Sys:     s.sys,
			Prog:    s.prog,
			ProgKey: s.progKey,
			Opts:    eval.Opts{Workers: s.workers, Shards: s.shards, Metrics: s.reg},
		})
		maintDur = time.Since(t0)
	}
	s.snap.Store(snap)
	return snap.Epoch(), mres, maintDur, nil
}

// Snapshot returns the latest published snapshot.
func (s *Server) Snapshot() *storage.Snapshot { return s.snap.Load() }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache returns the server's result cache.
func (s *Server) Cache() *eval.ResultCache { return s.cache }

// QueryResult is the /query response body.
type QueryResult struct {
	Query string `json:"query"`
	// RequestID is the request's correlation ID: echoed from the client's
	// X-Request-Id header or generated, and repeated in the response header,
	// the journal record and the request log line.
	RequestID string `json:"request_id,omitempty"`
	// Pred/Arity/Adornment identify the query shape: the queried predicate
	// and its binding pattern in the paper's d/v notation ("dv" = first
	// argument bound, second free).
	Pred      string     `json:"pred,omitempty"`
	Arity     int        `json:"arity,omitempty"`
	Adornment string     `json:"adornment,omitempty"`
	Answers   [][]string `json:"answers"`
	Count     int        `json:"count"`
	Epoch     uint64     `json:"epoch"`
	Cached    bool       `json:"cached"`
	// Maintained reports that the answer was carried across a write by the
	// result cache's incremental maintenance pass rather than recomputed.
	Maintained bool   `json:"maintained,omitempty"`
	Class      string `json:"class,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	Rounds     int    `json:"rounds"`
	Derived    int    `json:"derived"`
	// Cost is the compiled plan's estimated enumeration cost (tuples
	// visited) under its statistics-driven join orders; omitted when the
	// plan carries no order book (e.g. the TC kernel).
	Cost int64 `json:"cost,omitempty"`
	// Limit echoes the request's answer cap (0 = none); Truncated reports
	// that the evaluation stopped early because the cap was reached before
	// the answer set was exhausted.
	Limit     int  `json:"limit,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	// Shards is the hash-shard count the evaluation ran with (omitted when
	// unsharded); GoMaxProcs records runtime.GOMAXPROCS(0) at answer time,
	// so every perf number in a response is attributable to a core count.
	Shards     int   `json:"shards,omitempty"`
	GoMaxProcs int   `json:"gomaxprocs"`
	DurationUS int64 `json:"duration_us"`
	Trace      any   `json:"trace,omitempty"`

	// stats keeps the raw evaluation counters for the journal handoff
	// (eval.Stats.FillJournal); not part of the JSON body.
	stats eval.Stats
}

// Query answers one query string against the latest snapshot, through the
// result cache. The tracer, when non-nil, receives the evaluation's spans.
// ctx cancellation aborts the evaluation (eval.ErrCanceled): a disconnected
// client stops burning CPU at the next fixpoint round, while a singleflight
// compute with other live waiters keeps running for them.
func (s *Server) Query(ctx context.Context, qs string, tracer *obs.Tracer) (*QueryResult, error) {
	q, err := parser.ParseQuery(qs)
	if err != nil {
		return nil, &clientError{err: err}
	}
	snap := s.snap.Load()
	if err := s.validateQuery(q, snap); err != nil {
		return nil, err
	}
	opts := eval.Opts{Workers: s.workers, Shards: s.shards, Metrics: s.reg, Tracer: tracer, Abort: ctx.Done()}

	t0 := time.Now()
	var (
		rel    *storage.Relation
		st     eval.Stats
		cached bool
	)
	if s.sys != nil {
		rel, st, cached, err = s.cache.Answer(s.planner, s.sys, q, snap, opts)
	} else {
		// Generic program: parallel semi-naive over the snapshot, memoized
		// under (program, query, epoch) with the materialized fixpoint kept
		// as the entry's maintenance state.
		rel, st, cached, err = s.cache.AnswerProgram(s.prog, s.progKey, q, snap, opts)
	}
	s.evalDur.Observe(time.Since(t0).Seconds())
	if err != nil {
		return nil, err
	}

	syms := snap.Syms()
	res := s.newResult(q, snap, st, cached, t0)
	res.Answers = make([][]string, 0, rel.Len())
	res.Count = rel.Len()
	rel.Each(func(t storage.Tuple) bool {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = syms.Name(v)
		}
		res.Answers = append(res.Answers, row)
		return true
	})
	return res, nil
}

// newResult fills the answer-independent QueryResult fields.
func (s *Server) newResult(q ast.Query, snap *storage.Snapshot, st eval.Stats, cached bool, t0 time.Time) *QueryResult {
	res := &QueryResult{
		Query:      q.String(),
		Pred:       q.Atom.Pred,
		Arity:      q.Atom.Arity(),
		Adornment:  adorn.FromQuery(q).String(),
		stats:      st,
		Epoch:      snap.Epoch(),
		Cached:     cached,
		Maintained: st.Maintained,
		Rounds:     st.Rounds,
		Derived:    st.Derived,
		Truncated:  st.Truncated,
		Shards:     st.Shards,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DurationUS: time.Since(t0).Microseconds(),
	}
	if st.Plan != nil {
		res.Class = st.Plan.Class
		res.Strategy = st.Plan.Strategy
		res.Cost = st.Plan.Cost
	} else if s.sys == nil {
		res.Strategy = "parallel"
	}
	return res
}

// queryStream is one open streaming evaluation: the iterator plus the
// request-scoped state the response needs before and after the rows.
type queryStream struct {
	it     eval.Iterator
	q      ast.Query
	snap   *storage.Snapshot
	cached bool
	t0     time.Time
}

// openStream parses and validates the query, then opens its answer stream
// against the latest snapshot: a zero-copy iterator over the cached relation
// on a cache hit, otherwise a streaming evaluation along the compiled plan
// (which a limit or a ctx cancellation stops mid-fixpoint). Streamed misses
// do not populate the result cache — a truncated answer set must never be
// served as the full one.
func (s *Server) openStream(ctx context.Context, qs string, limit int, tracer *obs.Tracer) (*queryStream, error) {
	q, err := parser.ParseQuery(qs)
	if err != nil {
		return nil, &clientError{err: err}
	}
	snap := s.snap.Load()
	if err := s.validateQuery(q, snap); err != nil {
		return nil, err
	}
	opts := eval.Opts{Workers: s.workers, Shards: s.shards, Metrics: s.reg, Tracer: tracer, Abort: ctx.Done()}
	qst := &queryStream{q: q, snap: snap, t0: time.Now()}

	progKey := s.progKey
	if s.sys != nil {
		progKey = eval.SystemKey(s.sys)
	}
	if rel, cst, ok := s.cache.Lookup(progKey, q.String(), snap.Epoch()); ok {
		qst.cached = true
		qst.it = eval.NewRelationIterator(rel, limit, cst)
		return qst, nil
	}
	if s.sys != nil {
		plan, _, err := s.planner.PlanForEpoch(s.sys, q, snap.Epoch(), snap.DB(), opts)
		if err != nil {
			return nil, err
		}
		qst.it = plan.Stream(q, snap.DB(), opts, limit)
		return qst, nil
	}
	qst.it = eval.StreamProgram(s.prog, q, snap.DB(), opts, limit)
	return qst, nil
}

// StreamQuery answers one query, delivering each answer row to the callback
// as it is derived instead of materializing the full set. each returning
// false stops the evaluation (remaining fixpoint rounds are abandoned); so
// do reaching the limit (limit > 0) and ctx cancellation. The returned
// QueryResult summarizes the stream — Count is the number of rows delivered,
// Answers stays nil. On ctx cancellation the summary is returned alongside
// an error wrapping eval.ErrCanceled.
func (s *Server) StreamQuery(ctx context.Context, qs string, limit int, tracer *obs.Tracer, each func(row []string) bool) (*QueryResult, error) {
	qst, err := s.openStream(ctx, qs, limit, tracer)
	if err != nil {
		return nil, err
	}
	defer qst.it.Close()
	syms := qst.snap.Syms()
	rows := 0
	for qst.it.Next() {
		t := qst.it.Tuple()
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = syms.Name(v)
		}
		rows++
		if !each(row) {
			break
		}
	}
	// Close before reading Stats/Err: after an early break the producer may
	// still be running, and both are defined only once it has exited.
	qst.it.Close()
	st := qst.it.Stats()
	s.evalDur.Observe(time.Since(qst.t0).Seconds())
	s.rowsStreamed.Add(int64(rows))
	if st.Truncated {
		s.earlyTerm.Inc()
	}
	res := s.newResult(qst.q, qst.snap, st, qst.cached, qst.t0)
	res.Count = rows
	res.Limit = limit
	if err := qst.it.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// validateQuery rejects queries that can never be answered by the served
// program — wrong predicate for a single-system server, wrong arity for a
// known predicate — as client errors, so they don't count as engine
// failures.
func (s *Server) validateQuery(q ast.Query, snap *storage.Snapshot) error {
	if s.sys != nil {
		if q.Atom.Pred != s.sys.Pred() || q.Atom.Arity() != s.sys.Arity() {
			return clientErrf("query %v does not match served predicate %s/%d",
				q, s.sys.Pred(), s.sys.Arity())
		}
		return nil
	}
	want := -1
	for _, r := range s.prog.Rules {
		if r.Head.Pred == q.Atom.Pred {
			want = r.Head.Arity()
			break
		}
	}
	if want < 0 {
		if rel := snap.Rel(q.Atom.Pred); rel != nil {
			want = rel.Arity()
		}
	}
	if want >= 0 && want != q.Atom.Arity() {
		return clientErrf("query %v has arity %d, predicate %s has arity %d",
			q, q.Atom.Arity(), q.Atom.Pred, want)
	}
	return nil
}

// Handler returns the server's HTTP handler: the obs mux (metrics, statz,
// expvar, pprof, the query journal's /debug/queries endpoints) plus the
// query, facts, liveness and readiness endpoints.
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux(s.reg)
	obs.MountJournal(mux, s.journal)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/facts", s.handleFacts)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Query string `json:"query"`
	Trace bool   `json:"trace,omitempty"`
	// Limit caps the number of answers (0 = all); the evaluation stops as
	// soon as the cap is reached.
	Limit int `json:"limit,omitempty"`
	// Stream switches the response to chunked NDJSON: a header object, one
	// {"row": [...]} object per answer as it is derived, then a summary.
	Stream bool `json:"stream,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var qs string
	var wantTrace, stream bool
	var limit int
	switch r.Method {
	case http.MethodGet:
		qv := r.URL.Query()
		qs = qv.Get("q")
		wantTrace = qv.Get("trace") == "1"
		stream = qv.Get("stream") == "1"
		if lv := qv.Get("limit"); lv != "" {
			n, err := strconv.Atoi(lv)
			if err != nil || n < 0 {
				s.fail(w, http.StatusBadRequest, fmt.Errorf("limit must be a non-negative integer, got %q", lv))
				return
			}
			limit = n
		}
	case http.MethodPost:
		body := io.Reader(r.Body)
		if s.maxQuery > 0 {
			body = http.MaxBytesReader(w, r.Body, s.maxQuery)
		}
		var req queryRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.fail(w, http.StatusRequestEntityTooLarge,
					clientErrf("query body exceeds %d bytes", mbe.Limit))
				return
			}
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if req.Limit < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("limit must be non-negative, got %d", req.Limit))
			return
		}
		qs, wantTrace, limit, stream = req.Query, req.Trace, req.Limit, req.Stream
	default:
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET ?q= or POST"))
		return
	}
	if strings.TrimSpace(qs) == "" {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty query (GET /query?q=?- p(a, Y). or POST {\"query\": ...})"))
		return
	}

	reqID := s.requestID(r)
	w.Header().Set("X-Request-Id", reqID)

	s.queries.Inc()
	s.inflight.Add(1)
	t0 := time.Now()

	// Sampled requests get a full span tree attached to their journal
	// record even when the client did not ask for one; unsampled requests
	// without &trace=1 keep the nil tracer — the zero-allocation hot path.
	sampled := s.sampler.Sample()
	var tracer *obs.Tracer
	if wantTrace || sampled {
		tracer = obs.New("query")
	}
	tok := s.journal.Begin(reqID, qs)
	rec := obs.QueryRecord{ID: reqID, Query: qs, Start: t0, Sampled: sampled, Streamed: stream}

	var res *QueryResult
	var qerr error
	defer func() {
		s.inflight.Add(-1)
		s.queryDur.Observe(time.Since(t0).Seconds())
		s.journal.End(tok)
		s.completeRequest(&rec, res, qerr, tracer, t0)
	}()

	ctx := r.Context()
	if stream {
		res, qerr = s.streamResponse(ctx, w, qs, limit, tracer, wantTrace, reqID)
		return
	}

	if limit > 0 {
		// Limited non-streaming query: evaluate through the streaming path
		// (the fixpoint stops at the cap) but answer with one JSON body.
		var answers [][]string
		res, qerr = s.StreamQuery(ctx, qs, limit, tracer, func(row []string) bool {
			answers = append(answers, row)
			return true
		})
		if res != nil {
			res.Answers = answers
			if res.Answers == nil {
				res.Answers = [][]string{}
			}
		}
	} else {
		res, qerr = s.Query(ctx, qs, tracer)
	}
	if qerr != nil {
		if s.countCanceled(ctx, qerr) {
			// The client is gone; there is nobody to answer.
			return
		}
		s.fail(w, errStatus(qerr), qerr)
		return
	}
	res.RequestID = reqID
	if tracer != nil && wantTrace {
		tracer.Finish()
		res.Trace = json.RawMessage(traceJSON(tracer))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// requestID returns the request's correlation ID: the client's
// X-Request-Id header when present (truncated to 128 bytes), otherwise a
// generated per-process-unique ID.
func (s *Server) requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-Id")); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return s.idBase + "-" + strconv.FormatUint(s.idSeq.Add(1), 10)
}

// errClass buckets a request outcome for the journal and the request log:
// "" success, "client" (the request was wrong), "canceled" (the client
// left), "engine" (the evaluation failed).
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, eval.ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	}
	var ce *clientError
	if errors.As(err, &ce) {
		return "client"
	}
	return "engine"
}

// completeRequest closes out one /query request's observability: fills the
// journal record from the result (evaluation counters via
// eval.Stats.FillJournal), attaches the span tree when one was collected,
// records it, and emits the structured request log line.
func (s *Server) completeRequest(rec *obs.QueryRecord, res *QueryResult, err error, tracer *obs.Tracer, t0 time.Time) {
	rec.WallUS = time.Since(t0).Microseconds()
	if res != nil {
		rec.Pred, rec.Arity, rec.Adornment = res.Pred, res.Arity, res.Adornment
		rec.Epoch = res.Epoch
		rec.Cached = res.Cached
		rec.Rows = res.Count
		rec.EvalUS = res.DurationUS
		res.stats.FillJournal(rec)
	}
	rec.Error = errClass(err)
	if tracer != nil {
		tracer.Finish()
		rec.Trace = traceJSON(tracer)
	}
	slow := s.journal.SlowThreshold() >= 0 && rec.WallUS >= s.journal.SlowThreshold().Microseconds()
	s.journal.Record(*rec)
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	switch rec.Error {
	case "engine":
		level = slog.LevelError
	case "client", "canceled":
		level = slog.LevelWarn
	}
	s.log.LogAttrs(context.Background(), level, "query",
		slog.String("request_id", rec.ID),
		slog.String("query", rec.Query),
		slog.String("pred", rec.Pred),
		slog.String("adornment", rec.Adornment),
		slog.String("class", rec.Class),
		slog.String("strategy", rec.Strategy),
		slog.Bool("cached", rec.Cached),
		slog.Bool("maintained", rec.Maintained),
		slog.Bool("streamed", rec.Streamed),
		slog.Uint64("epoch", rec.Epoch),
		slog.Int("shards", rec.Shards),
		slog.Int("rounds", rec.Rounds),
		slog.Int("rows", rec.Rows),
		slog.Bool("truncated", rec.Truncated),
		slog.Bool("slow", slow),
		slog.Bool("sampled", rec.Sampled),
		slog.Int64("wall_us", rec.WallUS),
		slog.Int64("eval_us", rec.EvalUS),
		slog.String("error", rec.Error),
	)
}

// countCanceled reports whether err (or the request context) means the
// client abandoned the query, counting it once into
// dl_server_canceled_queries_total. Cancellations are neither server errors
// nor client errors — nothing was wrong with the request.
func (s *Server) countCanceled(ctx context.Context, err error) bool {
	if errors.Is(err, eval.ErrCanceled) || (ctx.Err() != nil && err != nil) {
		s.canceled.Inc()
		return true
	}
	return false
}

// streamResponse answers one query as chunked NDJSON: a header object
// (request_id, query, epoch, cached, limit), one {"row": [...]} line per
// answer flushed as it is derived, and a final {"done": true, ...} summary.
// A client disconnect cancels the evaluation via the request context; rows
// already buffered are simply dropped. The returned summary and error feed
// the caller's journal record; the HTTP response is fully written here.
func (s *Server) streamResponse(ctx context.Context, w http.ResponseWriter, qs string, limit int, tracer *obs.Tracer, wantTrace bool, reqID string) (*QueryResult, error) {
	qst, err := s.openStream(ctx, qs, limit, tracer)
	if err != nil {
		if s.countCanceled(ctx, err) {
			return nil, err
		}
		s.fail(w, errStatus(err), err)
		return nil, err
	}
	defer qst.it.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{
		"request_id": reqID,
		"query":      qst.q.String(),
		"epoch":      qst.snap.Epoch(),
		"cached":     qst.cached,
		"limit":      limit,
	})
	if flusher != nil {
		flusher.Flush()
	}

	syms := qst.snap.Syms()
	rows := 0
	writeOK := true
	for qst.it.Next() {
		t := qst.it.Tuple()
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = syms.Name(v)
		}
		rows++
		if err := enc.Encode(map[string]any{"row": row}); err != nil {
			// The write path is dead (client gone); stop pulling. The
			// context cancellation tears down the producer.
			writeOK = false
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Close before reading Stats/Err: after a write-error break the producer
	// may still be running, and both are defined only once it has exited.
	qst.it.Close()
	st := qst.it.Stats()
	s.evalDur.Observe(time.Since(qst.t0).Seconds())
	s.rowsStreamed.Add(int64(rows))
	if st.Truncated {
		s.earlyTerm.Inc()
	}
	res := s.newResult(qst.q, qst.snap, st, qst.cached, qst.t0)
	res.RequestID = reqID
	res.Count = rows
	res.Limit = limit
	serr := qst.it.Err()
	if s.countCanceled(ctx, serr) || s.countCanceled(ctx, ctx.Err()) {
		if serr == nil {
			serr = context.Canceled
		}
		return res, serr
	}
	if !writeOK {
		// The response write path died mid-stream: the client is gone.
		s.canceled.Inc()
		return res, fmt.Errorf("client disconnected mid-stream: %w", eval.ErrCanceled)
	}
	done := map[string]any{
		"done":        true,
		"request_id":  reqID,
		"count":       rows,
		"truncated":   res.Truncated,
		"cached":      res.Cached,
		"class":       res.Class,
		"strategy":    res.Strategy,
		"rounds":      res.Rounds,
		"derived":     res.Derived,
		"shards":      res.Shards,
		"gomaxprocs":  res.GoMaxProcs,
		"duration_us": res.DurationUS,
	}
	if serr != nil {
		s.errors.Inc()
		done["error"] = serr.Error()
	}
	if tracer != nil && wantTrace {
		tracer.Finish()
		done["trace"] = json.RawMessage(traceJSON(tracer))
	}
	enc.Encode(done)
	if flusher != nil {
		flusher.Flush()
	}
	return res, serr
}

// traceJSON renders a finished tracer's span tree as JSON bytes.
func traceJSON(t *obs.Tracer) []byte {
	var b strings.Builder
	if err := t.WriteJSON(&b); err != nil || b.Len() == 0 {
		return []byte("null")
	}
	return []byte(b.String())
}

func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST fact lines (\"pred(a, b).\") to /facts"))
		return
	}
	reqID := s.requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	body := r.Body
	if s.maxFacts > 0 {
		body = http.MaxBytesReader(w, body, s.maxFacts)
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				clientErrf("facts body exceeds %d bytes", mbe.Limit))
			return
		}
		s.fail(w, http.StatusBadRequest, &clientError{err: err})
		return
	}
	t0 := time.Now()
	epoch, mres, maintDur, err := s.loadFacts(string(raw))
	s.logFacts(reqID, len(raw), epoch, mres, maintDur, time.Since(t0), err)
	if err != nil {
		s.fail(w, errStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"epoch": epoch,
		// Maintenance outcome: entries carried forward vs rebuilt from
		// scratch by this write's cache-maintenance pass.
		"maintained": mres.Maintained,
		"recomputed": mres.Recomputed,
	})
}

// logFacts emits the write-path structured log line: batch size, resulting
// epoch, and the maintenance outcome (entries carried forward vs
// recomputed, and how long the pass took).
func (s *Server) logFacts(reqID string, bytes int, epoch uint64, mres eval.MaintResult, maintDur, wall time.Duration, err error) {
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	switch errClass(err) {
	case "engine":
		level = slog.LevelError
	case "client", "canceled":
		level = slog.LevelWarn
	}
	s.log.LogAttrs(context.Background(), level, "facts",
		slog.String("request_id", reqID),
		slog.Int("bytes", bytes),
		slog.Uint64("epoch", epoch),
		slog.Int("maintained", mres.Maintained),
		slog.Int("recomputed", mres.Recomputed),
		slog.Int("skipped", mres.Skipped),
		slog.Int64("maintenance_us", maintDur.Microseconds()),
		slog.Int64("wall_us", wall.Microseconds()),
		slog.String("error", errClass(err)),
	)
}

// errStatus maps an error to its HTTP status: 400 for request-caused
// failures, 500 for engine-side ones.
func errStatus(err error) int {
	var ce *clientError
	if errors.As(err, &ce) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// handleHealth is pure liveness: the process is up and can answer HTTP.
// Routing decisions belong to /readyz — a live server may still be loading
// its initial facts.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok":            true,
		"epoch":         snap.Epoch(),
		"cache_entries": s.cache.Len(),
		"cache_bytes":   s.cache.Bytes(),
	})
}

// handleReady is readiness: 200 only once the startup snapshot is fully
// published (MarkReady after any HoldReady bulk load) and the served
// system's plan compiles. Before that it answers 503 with a JSON reason,
// so load balancers and orchestration probes keep traffic away.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	notReady := func(reason string) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": reason})
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
	json.NewEncoder(w).Encode(map[string]any{
		"ready": true,
		"epoch": s.snap.Load().Epoch(),
	})
}

// warmPlan compiles (and caches) the served system's all-free plan once:
// readiness promises not just a published snapshot but a plan the first
// real query can reuse from the plan cache.
func (s *Server) warmPlan() {
	if s.sys == nil {
		return // generic programs are answered without a compiled plan
	}
	args := make([]ast.Term, s.sys.Arity())
	for i := range args {
		args[i] = ast.V(fmt.Sprintf("Warm%d", i))
	}
	q := ast.Query{Atom: ast.NewAtom(s.sys.Pred(), args...)}
	snap := s.snap.Load()
	_, _, err := s.planner.PlanForEpoch(s.sys, q, snap.Epoch(), snap.DB(), eval.Opts{Workers: s.workers, Metrics: s.reg})
	s.warmErr = err
}

// fail writes a JSON error and counts it: 5xx into dl_server_errors_total,
// everything else (client mistakes) into dl_server_client_errors_total.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	if code >= http.StatusInternalServerError {
		s.errors.Inc()
	} else {
		s.clientErrors.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
