package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
)

// clientError marks a failure caused by the request itself (malformed
// facts, bad query, wrong method, oversized body): answered with its 4xx
// status and counted into dl_server_client_errors_total, never into
// dl_server_errors_total.
type clientError struct {
	status int
	err    error
}

func (e *clientError) Error() string { return e.err.Error() }
func (e *clientError) Unwrap() error { return e.err }

func clientErrf(format string, args ...any) error {
	return &clientError{http.StatusBadRequest, fmt.Errorf(format, args...)}
}

// outcome is one row of the outcome table: everything about a finished
// request that depends on how it ended.
type outcome struct {
	class   string // "error" in the journal record and the log line
	status  int    // HTTP status; 0 when the client is gone and nobody is left to answer
	level   slog.Level
	counter *obs.Counter // nil on success
}

// outcomeOf is the outcome table — the one place an error is interpreted:
//
//	err                              class       status    level  counter
//	nil                              ""          200       INFO   -
//	eval.ErrCanceled or ctx is done  "canceled"  no reply  WARN   dl_server_canceled_queries_total
//	*clientError                     "client"    its 4xx   WARN   dl_server_client_errors_total
//	anything else                    "engine"    500       ERROR  dl_server_errors_total
func (s *Server) outcomeOf(ctx context.Context, err error) outcome {
	if err == nil {
		return outcome{status: http.StatusOK, level: slog.LevelInfo}
	}
	var o outcome
	var ce *clientError
	switch {
	case errors.Is(err, eval.ErrCanceled), ctx.Err() != nil:
		o = outcome{class: "canceled", counter: s.canceled}
	case errors.As(err, &ce):
		o = outcome{class: "client", status: ce.status, counter: s.clientErrors}
	default:
		return outcome{class: "engine", status: http.StatusInternalServerError, level: slog.LevelError, counter: s.errors}
	}
	o.level = slog.LevelWarn // the request failed, the server did not
	return o
}

// request is the envelope around one /query or /facts request.
type request struct {
	w         http.ResponseWriter
	r         *http.Request
	id        string
	start     time.Time
	streaming bool // an NDJSON response has begun: an error can no longer be the reply
}

// begin opens the envelope: the correlation ID (the client's X-Request-Id
// truncated to 128 bytes, else a generated process-unique one) is echoed in
// the response header, and a body is capped at maxBody bytes when > 0.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, maxBody int64) request {
	id := strings.TrimSpace(r.Header.Get("X-Request-Id"))
	if id == "" {
		id = string(strconv.AppendUint(append(make([]byte, 0, 32), s.idBase...), s.idSeq.Add(1), 10))
	} else if len(id) > 128 {
		id = id[:128]
	}
	w.Header().Set("X-Request-Id", id)
	if maxBody > 0 && r.Body != http.NoBody {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	}
	return request{w: w, r: r, id: id, start: time.Now()}
}

// bodyErr turns a failed body read into the client error it is: 413 when
// the envelope's cap cut the body short, otherwise 400.
func bodyErr(what string, err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &clientError{http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, mbe.Limit)}
	}
	return &clientError{http.StatusBadRequest, err}
}

// settle closes the envelope: the outcome table interprets err, the class
// counter moves, and an error that still has an audience is answered as
// {"error": ...} under the table's status.
func (s *Server) settle(rq *request, err error) outcome {
	o := s.outcomeOf(rq.r.Context(), err)
	if err != nil {
		o.counter.Inc()
		if o.status != 0 && !rq.streaming {
			writeJSON(rq.w, o.status, map[string]string{"error": err.Error()})
		}
	}
	return o
}

// writeJSON is every non-streamed reply: one JSON document under status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Handler returns the server's HTTP handler: the obs mux (metrics, statz,
// expvar, pprof, the query journal's /debug/queries endpoints) plus the
// query, facts, liveness and readiness endpoints.
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux(s.cfg.Registry)
	obs.MountJournal(mux, s.journal)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/facts", s.handleFacts)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// queryRequest is one /query request's parameters: the POST body, or the
// GET form ?q=...&limit=N&stream=1&trace=1.
type queryRequest struct {
	Query string `json:"query"`
	Trace bool   `json:"trace,omitempty"`
	// Limit caps the number of answers (0 = all); the evaluation stops as
	// soon as the cap is reached.
	Limit int `json:"limit,omitempty"`
	// Stream switches the response to chunked NDJSON (replyNDJSON).
	Stream bool `json:"stream,omitempty"`
}

func parseQueryRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		qv := r.URL.Query()
		req.Query, req.Trace, req.Stream = qv.Get("q"), qv.Get("trace") == "1", qv.Get("stream") == "1"
		if lv := qv.Get("limit"); lv != "" {
			n, err := strconv.Atoi(lv)
			if err != nil || n < 0 {
				return req, clientErrf("limit must be a non-negative integer, got %q", lv)
			}
			req.Limit = n
		}
	case http.MethodPost:
		var body queryRequest // Decode makes it escape; req stays on the stack for GETs
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return req, bodyErr("query", fmt.Errorf("bad request body: %w", err))
		}
		req = body
		if req.Limit < 0 {
			return req, clientErrf("limit must be non-negative, got %d", req.Limit)
		}
	default:
		return req, &clientError{http.StatusMethodNotAllowed, errors.New("use GET ?q= or POST")}
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, clientErrf("empty query (GET /query?q=?- p(a, Y). or POST {\"query\": ...})")
	}
	return req, nil
}

// handleQuery serves /query. The in-flight gauge and duration histogram
// cover every request; sampling and the journal start at a query string.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rq := s.begin(w, r, s.cfg.MaxQueryBytes)
	s.queries.Inc()
	s.inflight.Add(1)
	tok := -1
	defer func() { // deferred, so a panic unwinding the handler releases them too
		s.inflight.Add(-1)
		s.queryDur.Observe(time.Since(rq.start).Seconds())
		s.journal.End(tok)
	}()

	rec := obs.QueryRecord{ID: rq.id, Start: rq.start}
	var tracer *obs.Tracer
	var res *QueryResult
	req, err := parseQueryRequest(r)
	if err == nil {
		// Sampled requests get a full span tree attached to their journal
		// record even when the client did not ask for one; unsampled requests
		// without &trace=1 keep the nil tracer — the zero-allocation hot path.
		rec.Query, rec.Streamed, rec.Sampled = req.Query, req.Stream, s.sampler.Sample()
		if req.Trace || rec.Sampled {
			tracer = obs.New("query")
		}
		tok = s.journal.Begin(rq.id, req.Query)
		if req.Stream {
			res, err = s.replyNDJSON(&rq, req, tracer)
		} else {
			res, err = s.replyJSON(&rq, req, tracer)
		}
	}

	o := s.settle(&rq, err)
	rec.WallUS = time.Since(rq.start).Microseconds()
	rec.Error = o.class
	if res != nil {
		rec.Pred, rec.Arity, rec.Adornment = res.Pred, res.Arity, res.Adornment
		rec.Epoch, rec.Cached, rec.Rows, rec.EvalUS = res.Epoch, res.Cached, res.Count, res.DurationUS
		res.stats.FillJournal(&rec)
	}
	if tracer != nil {
		rec.Trace = traceJSON(tracer)
	}
	if rec.Query != "" {
		s.journal.Record(rec)
	}
	if s.cfg.Logger == nil {
		return
	}
	slow := s.journal.SlowThreshold() >= 0 && rec.WallUS >= s.journal.SlowThreshold().Microseconds()
	s.cfg.Logger.LogAttrs(context.Background(), o.level, "query",
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

// replyJSON is the /query consumer for one JSON body, with or without a
// limit: collect the rows, then encode the summary around them.
func (s *Server) replyJSON(rq *request, req queryRequest, tracer *obs.Tracer) (*QueryResult, error) {
	res, err := s.collect(rq.r.Context(), req.Query, req.Limit, tracer)
	if err != nil {
		return res, err
	}
	res.RequestID = rq.id
	if req.Trace {
		res.Trace = traceJSON(tracer)
	}
	writeJSON(rq.w, http.StatusOK, res)
	return res, nil
}

// replyNDJSON is the /query consumer for chunked NDJSON: a header object
// (request_id, query, epoch, cached, limit), one {"row": [...]} line per
// answer, and a final {"done": true, ...} summary. Lines are flushed only
// when no further row is ready (and after the done line), so a cached
// answer leaves in one write while a derived one reaches the client before
// the server waits on the producer. A client disconnect cancels the
// evaluation via the request context; rows already buffered are simply
// dropped.
func (s *Server) replyNDJSON(rq *request, req queryRequest, tracer *obs.Tracer) (*QueryResult, error) {
	a, err := s.open(rq.r.Context(), req.Query, req.Limit, true, tracer)
	if err != nil {
		return nil, err
	}
	return s.writeNDJSON(rq, &a, req, tracer)
}

// rowLine is one NDJSON answer line.
type rowLine struct {
	Row []string `json:"row"`
}

// writeNDJSON drains the opened answer as NDJSON lines.
func (s *Server) writeNDJSON(rq *request, a *answer, req queryRequest, tracer *obs.Tracer) (*QueryResult, error) {
	ctx := rq.r.Context()
	rq.streaming = true
	rq.w.Header().Set("Content-Type", "application/x-ndjson")
	rq.w.Header().Set("X-Content-Type-Options", "nosniff")
	flush := func() {}
	if f, ok := rq.w.(http.Flusher); ok {
		flush = f.Flush
	}
	enc := json.NewEncoder(rq.w)
	enc.Encode(map[string]any{
		"request_id": rq.id,
		"query":      a.query,
		"epoch":      a.snap.Epoch(),
		"cached":     a.cached,
		"limit":      a.limit,
	})
	if !a.it.Ready() {
		flush()
	}
	// A failed write means the client is gone: stop pulling, and the context
	// cancellation tears down the producer.
	alive := true
	res, err := s.drain(a, func(row []string) bool {
		alive = enc.Encode(rowLine{row}) == nil
		if alive && !a.it.Ready() {
			flush()
		}
		return alive
	})
	if err == nil && (!alive || ctx.Err() != nil) {
		err = fmt.Errorf("client disconnected mid-stream: %w", eval.ErrCanceled)
	}
	if s.outcomeOf(ctx, err).status == 0 {
		return res, err // nobody is left to read a summary
	}
	done := map[string]any{
		"done":        true,
		"request_id":  rq.id,
		"count":       res.Count,
		"truncated":   res.Truncated,
		"cached":      res.Cached,
		"class":       res.Class,
		"strategy":    res.Strategy,
		"rounds":      res.Rounds,
		"derived":     res.Derived,
		"gomaxprocs":  res.GoMaxProcs,
		"duration_us": res.DurationUS,
	}
	if err != nil {
		done["error"] = err.Error()
	}
	if req.Trace {
		done["trace"] = traceJSON(tracer)
	}
	enc.Encode(done)
	flush()
	return res, err
}

// traceJSON ends the tracer's root span and renders the span tree.
func traceJSON(t *obs.Tracer) json.RawMessage {
	t.Finish()
	var b bytes.Buffer
	if err := t.WriteJSON(&b); err != nil || b.Len() == 0 {
		return json.RawMessage("null")
	}
	return b.Bytes()
}

// handleFacts serves POST /facts: fact lines in, the new epoch and the
// cache-maintenance outcome out.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	rq := s.begin(w, r, s.cfg.MaxFactsBytes)
	var (
		raw      []byte
		err      error
		epoch    = s.snap.Load().Epoch()
		mres     eval.MaintResult
		maintDur time.Duration
	)
	if r.Method != http.MethodPost {
		err = &clientError{http.StatusMethodNotAllowed, errors.New("POST fact lines (\"pred(a, b).\") to /facts")}
	} else if raw, err = io.ReadAll(r.Body); err != nil {
		err = bodyErr("facts", err)
	} else {
		epoch, mres, maintDur, err = s.loadFacts(string(raw))
	}
	o := s.settle(&rq, err)
	if err == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch": epoch,
			// Cached entries carried forward (carried: untouched) vs rebuilt.
			"maintained": mres.Maintained,
			"carried":    mres.Carried,
			"recomputed": mres.Recomputed,
		})
	}
	if s.cfg.Logger == nil {
		return
	}
	s.cfg.Logger.LogAttrs(context.Background(), o.level, "facts",
		slog.String("request_id", rq.id),
		slog.Int("bytes", len(raw)),
		slog.Uint64("epoch", epoch),
		slog.Int("maintained", mres.Maintained),
		slog.Int("carried", mres.Carried),
		slog.Int("recomputed", mres.Recomputed),
		slog.Int("skipped", mres.Skipped),
		slog.Int64("maintenance_us", maintDur.Microseconds()),
		slog.Int64("wall_us", time.Since(rq.start).Microseconds()),
		slog.String("error", o.class),
	)
}
