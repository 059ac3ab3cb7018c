package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newObsServer builds a test server with an observability-oriented config.
func newObsServer(t *testing.T, src string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// debugQueries fetches and decodes a journal debug endpoint.
func debugQueries(t *testing.T, ts *httptest.Server, path string) struct {
	SlowThresholdUS int64            `json:"slow_threshold_us"`
	Inflight        []map[string]any `json:"inflight"`
	Recent          []map[string]any `json:"recent"`
	Slow            []map[string]any `json:"slow"`
} {
	t.Helper()
	var body struct {
		SlowThresholdUS int64            `json:"slow_threshold_us"`
		Inflight        []map[string]any `json:"inflight"`
		Recent          []map[string]any `json:"recent"`
		Slow            []map[string]any `json:"slow"`
	}
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
	return body
}

// TestSlowQueryJournalEndToEnd is the issue's acceptance path: with a tiny
// slow threshold and 1-in-1 trace sampling, a completed query must appear
// in /debug/queries/slow carrying its request ID, plan class and a span
// tree — even though the client never asked for a trace.
func TestSlowQueryJournalEndToEnd(t *testing.T) {
	_, ts := newObsServer(t, tcProgram, Config{
		SlowQueryThreshold: time.Nanosecond, // every query is slow
		TraceSampleRate:    1,               // every query is sampled
	})

	req, _ := http.NewRequest("GET", ts.URL+"/query?q="+strings.ReplaceAll("?- p(X, Y).", " ", "%20"), nil)
	req.Header.Set("X-Request-Id", "slow-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var res QueryResult
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Trace != nil {
		t.Error("response carries a trace the client never asked for")
	}
	if res.RequestID != "slow-e2e-1" {
		t.Errorf("response request_id = %q, want slow-e2e-1", res.RequestID)
	}

	body := debugQueries(t, ts, "/debug/queries/slow")
	if len(body.Slow) != 1 {
		t.Fatalf("slow ring = %d records, want 1: %+v", len(body.Slow), body.Slow)
	}
	rec := body.Slow[0]
	if rec["id"] != "slow-e2e-1" {
		t.Errorf("slow record id = %v, want slow-e2e-1", rec["id"])
	}
	if rec["class"] == nil || rec["class"] == "" {
		t.Errorf("slow record missing plan class: %v", rec)
	}
	if rec["sampled"] != true {
		t.Errorf("slow record sampled = %v, want true", rec["sampled"])
	}
	trace, ok := rec["trace"].(map[string]any)
	if !ok {
		t.Fatalf("slow record trace = %T, want span tree object", rec["trace"])
	}
	if trace["name"] != "query" {
		t.Errorf("trace root span = %v, want \"query\"", trace["name"])
	}
	// The full endpoint shows the same record in recent and slow.
	full := debugQueries(t, ts, "/debug/queries")
	if len(full.Recent) != 1 || len(full.Slow) != 1 {
		t.Errorf("/debug/queries recent=%d slow=%d, want 1/1", len(full.Recent), len(full.Slow))
	}
}

// TestInflightStreamedQuery opens a streaming query over a big closure,
// reads only the NDJSON header, and checks the request shows up in
// /debug/queries' in-flight table with a nonzero age while the body is
// still being delivered (the un-drained response keeps the handler live).
func TestInflightStreamedQuery(t *testing.T) {
	_, ts := newObsServer(t, tcProgram+chainFacts(800), Config{})

	resp, err := http.Get(ts.URL + "/query?stream=1&q=" + strings.ReplaceAll("?- p(X, Y).", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	header, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hdr map[string]any
	if err := json.Unmarshal([]byte(header), &hdr); err != nil {
		t.Fatalf("bad NDJSON header %q: %v", header, err)
	}
	reqID, _ := hdr["request_id"].(string)
	if reqID == "" {
		t.Fatalf("NDJSON header missing request_id: %v", hdr)
	}

	// The handler cannot finish while we sit on the unread body (the rows
	// exceed the socket buffers), so the query stays registered in-flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := debugQueries(t, ts, "/debug/queries")
		if len(body.Inflight) == 1 {
			in := body.Inflight[0]
			if in["id"] != reqID {
				t.Fatalf("inflight id = %v, want %q", in["id"], reqID)
			}
			if age, _ := in["age_us"].(float64); age <= 0 {
				t.Fatalf("inflight age_us = %v, want > 0", in["age_us"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never appeared in-flight: %+v", body.Inflight)
		}
		time.Sleep(time.Millisecond)
	}

	// Disconnect mid-stream; the journal must unregister the query and the
	// completed record lands with error class "canceled" (or completes
	// cleanly if the stream finished racing our close — both drain to an
	// empty in-flight table).
	resp.Body.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		body := debugQueries(t, ts, "/debug/queries")
		if len(body.Inflight) == 0 {
			if len(body.Recent) != 1 {
				t.Fatalf("recent = %d records after stream ended, want 1", len(body.Recent))
			}
			rec := body.Recent[0]
			if rec["id"] != reqID || rec["streamed"] != true {
				t.Fatalf("recent record = %v, want streamed record %q", rec, reqID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never left the in-flight table after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadyzLifecycle(t *testing.T) {
	s, ts := newObsServer(t, tcProgram, Config{HoldReady: true})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("held /readyz = %d, want 503", resp.StatusCode)
	}
	if body["ready"] != false || body["reason"] == "" || body["reason"] == nil {
		t.Fatalf("held /readyz body = %v, want ready=false with a reason", body)
	}
	// Liveness is independent of readiness.
	if lr, err := http.Get(ts.URL + "/healthz"); err != nil || lr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while unready: %v %v, want 200", lr.StatusCode, err)
	} else {
		lr.Body.Close()
	}

	s.MarkReady()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body = map[string]any{}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body["ready"] != true {
		t.Fatalf("ready /readyz = %d %v, want 200 ready=true", resp.StatusCode, body)
	}
}

func TestReadyzDefaultReady(t *testing.T) {
	_, ts := newObsServer(t, tcProgram, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default /readyz = %d, want 200 (no HoldReady)", resp.StatusCode)
	}
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	_, ts := newObsServer(t, tcProgram, Config{})
	q := ts.URL + "/query?q=" + strings.ReplaceAll("?- p(a, Y).", " ", "%20")

	// Generated IDs: nonempty, echoed in the header, distinct per request.
	var ids []string
	for i := 0; i < 2; i++ {
		resp, err := http.Get(q)
		if err != nil {
			t.Fatal(err)
		}
		var res QueryResult
		json.NewDecoder(resp.Body).Decode(&res)
		hdr := resp.Header.Get("X-Request-Id")
		resp.Body.Close()
		if hdr == "" || hdr != res.RequestID {
			t.Fatalf("header id %q vs body id %q, want equal and nonempty", hdr, res.RequestID)
		}
		ids = append(ids, hdr)
	}
	if ids[0] == ids[1] {
		t.Errorf("generated request IDs collide: %q", ids[0])
	}

	// Client-provided IDs are accepted but truncated to 128 bytes.
	long := strings.Repeat("x", 200)
	req, _ := http.NewRequest("GET", q, nil)
	req.Header.Set("X-Request-Id", long)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	if got != long[:128] {
		t.Errorf("oversized client id echoed as %d bytes, want truncation to 128", len(got))
	}
}

// syncBuffer guards the slog sink: the server logs from request goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(s.b.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

func TestStructuredRequestLog(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	_, ts := newObsServer(t, tcProgram, Config{Logger: logger})

	req, _ := http.NewRequest("GET", ts.URL+"/query?q="+strings.ReplaceAll("?- p(a, Y).", " ", "%20"), nil)
	req.Header.Set("X-Request-Id", "log-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	lines := buf.lines(t)
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want exactly 1 per request: %v", len(lines), lines)
	}
	q := lines[0]
	if q["msg"] != "query" || q["level"] != "INFO" {
		t.Fatalf("query line = %v, want msg=query level=INFO", q)
	}
	for _, key := range []string{"request_id", "query", "pred", "adornment", "class", "strategy", "epoch", "rows", "wall_us", "eval_us"} {
		if _, ok := q[key]; !ok {
			t.Errorf("query log line missing %q: %v", key, q)
		}
	}
	if q["request_id"] != "log-1" || q["rows"] != float64(3) || q["error"] != "" {
		t.Errorf("query line = %v, want request_id=log-1 rows=3 error=\"\"", q)
	}

	// A bad query logs at WARN with error class "client".
	resp, err = http.Get(ts.URL + "/query?q=nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lines = buf.lines(t)
	if len(lines) != 2 {
		t.Fatalf("got %d log lines after bad query, want 2", len(lines))
	}
	bad := lines[1]
	if bad["level"] != "WARN" || bad["error"] != "client" {
		t.Errorf("bad-query line = %v, want level=WARN error=client", bad)
	}
}

func TestStructuredFactsLog(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	_, ts := newObsServer(t, tcProgram, Config{Logger: logger})

	// Warm the cache so the write has something to maintain.
	getQuery(t, ts, "?- p(a, Y).")
	resp, err := http.Post(ts.URL+"/facts", "text/plain", strings.NewReader("e(d, x)."))
	if err != nil {
		t.Fatal(err)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("POST /facts response missing X-Request-Id header")
	}
	resp.Body.Close()

	var facts map[string]any
	for _, ln := range buf.lines(t) {
		if ln["msg"] == "facts" {
			facts = ln
		}
	}
	if facts == nil {
		t.Fatal("no facts log line emitted")
	}
	for _, key := range []string{"request_id", "bytes", "epoch", "maintained", "recomputed", "maintenance_us", "wall_us"} {
		if _, ok := facts[key]; !ok {
			t.Errorf("facts log line missing %q: %v", key, facts)
		}
	}
	if facts["maintained"] != float64(1) {
		t.Errorf("facts line maintained = %v, want 1 (the warmed p(a, Y) entry)", facts["maintained"])
	}
}

// TestJournalDisabled pins the negative-JournalSize contract: no journal,
// but the debug endpoints still answer (empty) instead of 404ing.
func TestJournalDisabled(t *testing.T) {
	s, ts := newObsServer(t, tcProgram, Config{JournalSize: -1})
	if s.Journal() != nil {
		t.Fatal("JournalSize -1 should disable the journal")
	}
	getQuery(t, ts, "?- p(a, Y).")
	body := debugQueries(t, ts, "/debug/queries")
	if len(body.Recent) != 0 || len(body.Inflight) != 0 || len(body.Slow) != 0 {
		t.Errorf("disabled journal returned records: %+v", body)
	}
	if body.SlowThresholdUS >= 0 {
		t.Errorf("disabled journal slow_threshold_us = %d, want negative", body.SlowThresholdUS)
	}
}
