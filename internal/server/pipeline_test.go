package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dlgen"
	"repro/internal/paper"
)

// formResult is what every response form must agree on.
type formResult struct {
	Rows      []string // sorted
	Count     int
	Cached    bool
	Class     string
	Strategy  string
	Truncated bool
	Epoch     uint64
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, ",")
	}
	sort.Strings(out)
	return out
}

func summarise(res *QueryResult, rows [][]string) formResult {
	return formResult{sortedRows(rows), res.Count, res.Cached, res.Class, res.Strategy, res.Truncated, res.Epoch}
}

// responseForms are the five ways to ask the same question. limit is what
// the limited form passes (at least the answer size, so nothing truncates).
// The HTTP forms also check that the request ID they send is echoed in the
// header and in the body (JSON) or the header and done lines (NDJSON).
var responseForms = []struct {
	name     string
	http     bool // counts into dl_server_queries_total
	streamed bool // rows count into dl_query_rows_streamed_total
	ask      func(t *testing.T, s *Server, ts *httptest.Server, q string, limit int) formResult
}{
	{"Query", false, false, func(t *testing.T, s *Server, _ *httptest.Server, q string, _ int) formResult {
		res, err := s.Query(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return summarise(res, res.Answers)
	}},
	{"StreamQuery", false, true, func(t *testing.T, s *Server, _ *httptest.Server, q string, _ int) formResult {
		var rows [][]string
		res, err := s.StreamQuery(context.Background(), q, 0, nil, func(row []string) bool {
			rows = append(rows, row)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers != nil {
			t.Errorf("StreamQuery filled Answers: %v", res.Answers)
		}
		return summarise(res, rows)
	}},
	{"JSON", true, false, func(t *testing.T, _ *Server, ts *httptest.Server, q string, _ int) formResult {
		return askJSON(t, ts, "q="+url.QueryEscape(q))
	}},
	{"JSON+limit", true, true, func(t *testing.T, _ *Server, ts *httptest.Server, q string, limit int) formResult {
		return askJSON(t, ts, fmt.Sprintf("limit=%d&q=%s", limit, url.QueryEscape(q)))
	}},
	{"NDJSON", true, true, func(t *testing.T, _ *Server, ts *httptest.Server, q string, _ int) formResult {
		body := getWithID(t, ts, "stream=1&q="+url.QueryEscape(q), "forms-ndjson")
		var lines []map[string]any
		for sc := bufio.NewScanner(bytes.NewReader(body)); sc.Scan(); {
			var obj map[string]any
			if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			lines = append(lines, obj)
		}
		if len(lines) < 2 {
			t.Fatalf("NDJSON response has %d lines, want header and done", len(lines))
		}
		head, done := lines[0], lines[len(lines)-1]
		if head["request_id"] != "forms-ndjson" || done["request_id"] != "forms-ndjson" {
			t.Errorf("NDJSON request_id: header %v done %v, want forms-ndjson", head["request_id"], done["request_id"])
		}
		if head["cached"] != done["cached"] {
			t.Errorf("NDJSON cached: header %v, done %v", head["cached"], done["cached"])
		}
		var rows [][]string
		for _, l := range lines[1 : len(lines)-1] {
			var row []string
			for _, v := range l["row"].([]any) {
				row = append(row, v.(string))
			}
			rows = append(rows, row)
		}
		return formResult{sortedRows(rows), int(done["count"].(float64)), done["cached"].(bool),
			done["class"].(string), done["strategy"].(string), done["truncated"].(bool), uint64(head["epoch"].(float64))}
	}},
}

// getWithID issues GET /query?<params> under the given X-Request-Id and
// returns the 200 body after checking the header echo.
func getWithID(t *testing.T, ts *httptest.Server, params, id string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?"+params, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query?%s: status %d: %s", params, resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != id {
		t.Errorf("GET /query?%s: X-Request-Id %q, want %q", params, got, id)
	}
	return body
}

func askJSON(t *testing.T, ts *httptest.Server, params string) formResult {
	t.Helper()
	var res QueryResult
	if err := json.Unmarshal(getWithID(t, ts, params, "forms-json"), &res); err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "forms-json" {
		t.Errorf("JSON body request_id = %q, want forms-json", res.RequestID)
	}
	if res.Count != len(res.Answers) {
		t.Errorf("JSON count %d with %d answers", res.Count, len(res.Answers))
	}
	return summarise(&res, res.Answers)
}

// TestServerResponseFormsAgree pins the unification: every response form is
// the same pipeline, so on a cache miss and on a hit alike they deliver the
// same rows under the same summary, and each moves exactly its own counters.
func TestServerResponseFormsAgree(t *testing.T) {
	type fixture struct {
		name, src string
		// queries[i] answers under strategies[i].
		queries, strategies []string
	}
	var fixtures []fixture
	// Each statement's all-free and bound strategy: a TC plan serves only
	// bound queries, and runs the all-free one generically.
	for _, f := range [][3]string{
		{"s1a", "generic-parallel", "tc-frontier"}, {"s10", "bounded-union", "bounded-union"},
		{"s4a", "stable-parallel", "stable-parallel"}, {"s11", "generic-parallel", "generic-parallel"},
	} {
		id := f[0]
		st, ok := paper.ByID(id)
		if !ok {
			t.Fatalf("unknown statement %s", id)
		}
		sys := st.System()
		db, err := dlgen.RandomDB(sys, 6, 14, 3)
		if err != nil {
			t.Fatal(err)
		}
		var facts strings.Builder
		if err := db.WriteFacts(&facts); err != nil {
			t.Fatal(err)
		}
		free := make([]string, sys.Arity())
		for i := range free {
			free[i] = fmt.Sprintf("X%d", i)
		}
		bound := append([]string{"n0"}, free[1:]...)
		// The statement's own exit rule names its variables x1..xn, which
		// would read back as constants: spell the same rule with variables.
		src := fmt.Sprintf("%v\n%s(%[3]s) :- e(%[3]s).\n%s", st.Rule, sys.Pred(), strings.Join(free, ", "), facts.String())
		fixtures = append(fixtures, fixture{id, src, []string{
			fmt.Sprintf("?- %s(%s).", sys.Pred(), strings.Join(free, ", ")),
			fmt.Sprintf("?- %s(%s).", sys.Pred(), strings.Join(bound, ", ")),
		}, f[1:]})
	}
	// The non-linear program of TestServerGenericFallback: no single system,
	// so its plan is the classless generic one.
	fixtures = append(fixtures, fixture{"fallback", `
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, Z), t(Z, Y).
e(a, b). e(b, c). e(c, d).
`, []string{"?- t(X, Y).", "?- t(a, Y)."}, []string{"generic-parallel", "generic-parallel"}})

	counters := func(s *Server) [3]int64 {
		return [3]int64{s.queries.Value(), s.rowsStreamed.Value(), s.earlyTerm.Value()}
	}
	for _, fx := range fixtures {
		for i, q := range fx.queries {
			strategy := fx.strategies[i]
			t.Run(fx.name+"/"+q, func(t *testing.T) {
				first := map[string]*formResult{} // per cache state, what the first form answered
				for _, form := range responseForms {
					s, ts := newTestServer(t, fx.src)
					limit := 1
					if m := first["miss"]; m != nil && m.Count > 0 {
						limit = m.Count // the exact-limit boundary: all rows, not truncated
					}
					for _, state := range []string{"miss", "hit"} {
						before := counters(s)
						got := form.ask(t, s, ts, q, limit)
						after := counters(s)
						if got.Cached != (state == "hit") || got.Strategy != strategy || got.Truncated || got.Count != len(got.Rows) {
							t.Fatalf("%s on a %s: cached=%v strategy=%q truncated=%v count=%d rows=%d, want strategy %q",
								form.name, state, got.Cached, got.Strategy, got.Truncated, got.Count, len(got.Rows), strategy)
						}
						if first[state] == nil {
							first[state] = &got
						} else if !reflect.DeepEqual(got, *first[state]) {
							t.Errorf("%s on a %s disagrees with %s:\n got  %+v\n want %+v",
								form.name, state, responseForms[0].name, got, *first[state])
						}
						var want [3]int64
						if form.http {
							want[0] = 1
						}
						if form.streamed {
							want[1] = int64(got.Count)
						}
						for i, name := range []string{mQueries, mRowsStreamed, mEarlyTerm} {
							if d := after[i] - before[i]; d != want[i] {
								t.Errorf("%s on a %s moved %s by %d, want %d", form.name, state, name, d, want[i])
							}
						}
						if got.Count == 0 {
							t.Fatalf("%s: no answers; the fixture proves nothing", q)
						}
						// Only a materialised answer fills the cache: make
						// the next round of every form a hit.
						if _, err := s.Query(context.Background(), q, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// errBody is a request body whose read fails.
type errBody struct{}

func (errBody) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestServerEarlyRejects: a request refused before any evaluation still goes
// through the envelope — X-Request-Id on the response, one log line under
// the outcome table's class and level, the right status, one count — and
// never reaches the journal.
func TestServerEarlyRejects(t *testing.T) {
	buf := &syncBuffer{}
	s, err := New(tcProgram, Config{
		Logger:        slog.New(slog.NewJSONHandler(buf, nil)),
		MaxQueryBytes: 64,
		MaxFactsBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	big := strings.Repeat("x", 200)
	cases := []struct {
		name, method, target string
		body                 io.Reader
		status               int
		msg                  string
	}{
		{"query method", http.MethodDelete, "/query?q=x", nil, http.StatusMethodNotAllowed, "query"},
		{"query limit not a number", http.MethodGet, "/query?limit=abc&q=x", nil, http.StatusBadRequest, "query"},
		{"query limit negative", http.MethodGet, "/query?limit=-1&q=x", nil, http.StatusBadRequest, "query"},
		{"query empty", http.MethodGet, "/query?q=%20", nil, http.StatusBadRequest, "query"},
		{"query body malformed", http.MethodPost, "/query", strings.NewReader("{"), http.StatusBadRequest, "query"},
		{"query body negative limit", http.MethodPost, "/query", strings.NewReader(`{"query": "?- p(a, Y).", "limit": -3}`), http.StatusBadRequest, "query"},
		{"query body oversized", http.MethodPost, "/query", strings.NewReader(`{"query": "` + big + `"}`), http.StatusRequestEntityTooLarge, "query"},
		{"facts method", http.MethodGet, "/facts", nil, http.StatusMethodNotAllowed, "facts"},
		{"facts body oversized", http.MethodPost, "/facts", strings.NewReader("e(" + big + ", b)."), http.StatusRequestEntityTooLarge, "facts"},
		{"facts body unreadable", http.MethodPost, "/facts", errBody{}, http.StatusBadRequest, "facts"},
	}
	queries := 0
	for i, c := range cases {
		req := httptest.NewRequest(c.method, c.target, c.body)
		wantID := fmt.Sprintf("reject-%d", i)
		if i%2 == 1 {
			wantID = "" // generated
		} else if i == 0 {
			req.Header.Set("X-Request-Id", strings.Repeat("r", 200))
			wantID = strings.Repeat("r", 128)
		} else {
			req.Header.Set("X-Request-Id", wantID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.status)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: body %q, want a JSON error", c.name, rec.Body.String())
		}
		id := rec.Header().Get("X-Request-Id")
		if id == "" || (wantID != "" && id != wantID) {
			t.Errorf("%s: X-Request-Id %q, want %q (or generated)", c.name, id, wantID)
		}
		lines := buf.lines(t)
		if len(lines) != i+1 {
			t.Fatalf("%s: %d log lines so far, want exactly one per request (%d)", c.name, len(lines), i+1)
		}
		if ln := lines[i]; ln["msg"] != c.msg || ln["level"] != "WARN" || ln["error"] != "client" || ln["request_id"] != id {
			t.Errorf("%s: log line %v, want msg=%s level=WARN error=client request_id=%s", c.name, ln, c.msg, id)
		}
		if c.msg == "query" {
			queries++
		}
		if got := s.queries.Value(); got != int64(queries) {
			t.Errorf("%s: %s = %d, want %d", c.name, mQueries, got, queries)
		}
		if got := s.clientErrors.Value(); got != int64(i+1) {
			t.Errorf("%s: %s = %d, want %d", c.name, mClientErrors, got, i+1)
		}
	}
	if got := s.errors.Value() + s.canceled.Value(); got != 0 {
		t.Errorf("rejects counted %d engine errors or cancellations", got)
	}
	if got := s.queryDur.Count(); got != int64(queries) {
		t.Errorf("%s observed %d requests, want %d", mQueryDur, got, queries)
	}
	if got := s.inflight.Value(); got != 0 {
		t.Errorf("%s = %d after the last request", mInflight, got)
	}
	if n := len(s.Journal().Recent()) + len(s.Journal().Inflight()); n != 0 {
		t.Errorf("journal holds %d records of requests that never reached a query string", n)
	}
	if s.Snapshot().Rel("e").Len() != 3 {
		t.Error("a rejected /facts request changed the database")
	}
}

// TestServerHitAllocs pins the cache-hit path's allocation count, so a
// per-row or per-request allocation added to the pipeline fails here rather
// than in the serve_mixed allocs_per_op bound. The parent of the commit
// that introduced the pipeline measured 31 and 30.
func TestServerHitAllocs(t *testing.T) {
	s, err := New(tcProgram, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, q := context.Background(), "?- p(a, Y)."
	if _, err := s.Query(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if res, err := s.Query(ctx, q, nil); err != nil || !res.Cached || len(res.Answers) != 3 {
			t.Fatalf("warmed Query: %+v, %v", res, err)
		}
	}); got > 16 {
		t.Errorf("Server.Query on a warmed 3-row hit: %v allocs, want <= 16", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		res, err := s.StreamQuery(ctx, q, 2, nil, func([]string) bool { return true })
		if err != nil || !res.Cached || res.Count != 2 || !res.Truncated {
			t.Fatalf("warmed limit-2 StreamQuery: %+v, %v", res, err)
		}
	}); got > 15 {
		t.Errorf("Server.StreamQuery limit 2 on a warmed hit: %v allocs, want <= 15", got)
	}
}
