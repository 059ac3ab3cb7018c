package server

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

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
	// Shards is never set and never on the wire: the hash-shard path is
	// gone, and the declaration stays only because bench/traced.go (frozen
	// by BENCHMARK.json) still reads it; it goes with the next benchmark PR.
	Shards int `json:"shards,omitempty"`
	// GoMaxProcs records runtime.GOMAXPROCS(0) at answer time, so every
	// perf number in a response is attributable to a core count.
	GoMaxProcs int `json:"gomaxprocs"`
	// DurationUS runs from open to the last row delivered.
	DurationUS int64 `json:"duration_us"`
	Trace      any   `json:"trace,omitempty"`

	// stats keeps the raw evaluation counters for the journal handoff
	// (eval.Stats.FillJournal); not part of the JSON body.
	stats eval.Stats
}

// answer is one opened query: the row source plus the request-scoped state
// the summary needs once the rows are out.
type answer struct {
	it     eval.Iterator
	q      ast.Query
	query  string // q's canonical text: cache key, NDJSON header, summary
	snap   *storage.Snapshot
	cached bool // served from the result cache: a hit, or a ride on another caller's flight
	// streamed marks a limit or stream request: its rows count into
	// dl_query_rows_streamed_total and its miss never fills the cache.
	streamed bool
	limit    int
	hint     int // rows to expect when known up front (a frozen relation), else 0
	t0       time.Time
}

// open parses and validates the query, pins the latest snapshot and opens
// the row source. A cache hit is a zero-copy iterator over the frozen
// cached relation, whatever form the request takes. On a miss an unlimited,
// unstreamed request is materialised through the result cache (singleflight
// with identical concurrent queries; a fixpoint plan selects from its
// program's cached view; the answer and its maintenance state are kept) and
// iterated from the new entry, while a limit or stream request evaluates as
// a stream that the limit or a ctx cancellation stops mid-fixpoint and never
// fills the cache: a truncated answer set must not be served as the full
// one.
func (s *Server) open(ctx context.Context, qs string, limit int, stream bool, tracer *obs.Tracer) (answer, error) {
	q, err := parser.ParseQuery(qs)
	if err != nil {
		return answer{}, &clientError{http.StatusBadRequest, err}
	}
	snap := s.snap.Load()
	if err := s.validateQuery(q, snap); err != nil {
		return answer{}, err
	}
	opts := s.evalOpts(tracer, ctx.Done())
	a := answer{q: q, query: q.String(), snap: snap, streamed: stream || limit > 0, limit: limit, t0: time.Now()}

	rel, st, hit := s.cache.Lookup(s.key, a.query, snap.Epoch())
	switch {
	case hit:
		a.cached = true
	case a.streamed:
		plan, _, err := s.planner.PlanForEpoch(s.src, q, snap.Epoch(), snap.DB(), opts)
		if err != nil {
			return answer{}, err
		}
		a.it = plan.Stream(q, snap.DB(), opts, limit)
		return a, nil
	default:
		rel, st, a.cached, err = s.cache.Answer(s.planner, s.src, q, snap, opts)
	}
	if err != nil {
		return answer{}, err
	}
	a.it = eval.NewRelationIterator(rel, limit, st)
	a.hint = rel.Len()
	if limit > 0 && limit < a.hint {
		a.hint = limit
	}
	return a, nil
}

// drain pulls every row out of an opened answer, handing each to the
// consumer, and summarises the evaluation. each returning false stops the
// evaluation early. The summary is returned even when the stream ended in
// an error (alongside it), so a partial delivery is still accounted for.
func (s *Server) drain(a *answer, each func(row []string) bool) (*QueryResult, error) {
	defer a.it.Close()
	syms := a.snap.Syms()
	rows := 0
	var cells []string // rows are cut from one array when their number is known up front
	for a.it.Next() {
		t := a.it.Tuple()
		if len(cells) < len(t) {
			cells = make([]string, len(t)*max(1, a.hint-rows))
		}
		row := cells[:len(t):len(t)]
		cells = cells[len(t):]
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
	a.it.Close()
	st := a.it.Stats()
	s.evalDur.Observe(time.Since(a.t0).Seconds())
	if a.streamed {
		s.rowsStreamed.Add(int64(rows))
	}
	if st.Truncated {
		s.earlyTerm.Inc()
	}
	return s.newResult(a, st, rows), a.it.Err()
}

// newResult is the summary of one drained answer.
func (s *Server) newResult(a *answer, st eval.Stats, rows int) *QueryResult {
	res := &QueryResult{
		Query:      a.query,
		Pred:       a.q.Atom.Pred,
		Arity:      a.q.Atom.Arity(),
		Adornment:  adorn.FromQuery(a.q).String(),
		stats:      st,
		Count:      rows,
		Epoch:      a.snap.Epoch(),
		Cached:     a.cached,
		Maintained: st.Maintained,
		Rounds:     st.Rounds,
		Derived:    st.Derived,
		Limit:      a.limit,
		Truncated:  st.Truncated,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DurationUS: time.Since(a.t0).Microseconds(),
	}
	if st.Plan != nil {
		res.Class, res.Strategy, res.Cost = st.Plan.Class, st.Plan.Strategy, st.Plan.Cost
	}
	return res
}

// collect is the appending consumer behind Server.Query and the /query JSON
// body: the rows become QueryResult.Answers ([], not null, when none).
func (s *Server) collect(ctx context.Context, qs string, limit int, tracer *obs.Tracer) (*QueryResult, error) {
	a, err := s.open(ctx, qs, limit, false, tracer)
	if err != nil {
		return nil, err
	}
	answers := make([][]string, 0, a.hint)
	res, err := s.drain(&a, func(row []string) bool {
		answers = append(answers, row)
		return true
	})
	res.Answers = answers
	return res, err
}

// Query answers one query string against the latest snapshot, through the
// result cache. The tracer, when non-nil, receives the evaluation's spans.
// ctx cancellation aborts the evaluation (eval.ErrCanceled): a disconnected
// client stops burning CPU at the next fixpoint round, while a singleflight
// compute with other live waiters keeps running for them.
func (s *Server) Query(ctx context.Context, qs string, tracer *obs.Tracer) (*QueryResult, error) {
	return s.collect(ctx, qs, 0, tracer)
}

// StreamQuery answers one query, delivering each answer row to the callback
// as it is derived instead of materializing the full set. each returning
// false stops the evaluation (remaining fixpoint rounds are abandoned); so
// do reaching the limit (limit > 0) and ctx cancellation. The returned
// QueryResult summarizes the stream — Count is the number of rows delivered,
// Answers stays nil. On ctx cancellation the summary is returned alongside
// an error wrapping eval.ErrCanceled.
func (s *Server) StreamQuery(ctx context.Context, qs string, limit int, tracer *obs.Tracer, each func(row []string) bool) (*QueryResult, error) {
	a, err := s.open(ctx, qs, limit, true, tracer)
	if err != nil {
		return nil, err
	}
	return s.drain(&a, each)
}

// validateQuery rejects queries that can never be answered by the served
// program — wrong predicate for a single-system server, wrong arity for a
// known predicate — as client errors, so they don't count as engine failures.
func (s *Server) validateQuery(q ast.Query, snap *storage.Snapshot) error {
	if s.sys != nil {
		if q.Atom.Pred != s.sys.Pred() || q.Atom.Arity() != s.sys.Arity() {
			return clientErrf("query %v does not match served predicate %s/%d", q, s.sys.Pred(), s.sys.Arity())
		}
		return nil
	}
	want, known := s.arities[q.Atom.Pred]
	if !known {
		if rel := snap.Rel(q.Atom.Pred); rel != nil {
			want, known = rel.Arity(), true
		}
	}
	if known && want != q.Atom.Arity() {
		return clientErrf("query %v has arity %d, predicate %s has arity %d",
			q, q.Atom.Arity(), q.Atom.Pred, want)
	}
	return nil
}
