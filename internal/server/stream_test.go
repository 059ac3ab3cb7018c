package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// chainFacts renders e(n0,n1)...e(n{n-2},n{n-1}) fact lines.
func chainFacts(n int) string {
	var b strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(n%d, n%d).\n", i, i+1)
	}
	return b.String()
}

// ndjsonLines issues a streaming GET and returns the decoded NDJSON lines.
func ndjsonLines(t *testing.T, ts *httptest.Server, query string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?stream=1&" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", query, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestServerStreamNDJSON: the streaming response is header, one row line
// per answer, then a done summary — and the row set equals the
// materializing endpoint's answers, cold and from the cache.
func TestServerStreamNDJSON(t *testing.T) {
	s, ts := newTestServer(t, tcProgram)

	lines := ndjsonLines(t, ts, "q="+strings.ReplaceAll("?- p(a, Y).", " ", "%20"))
	if len(lines) != 5 { // header + 3 rows + done
		t.Fatalf("stream lines = %d, want 5: %v", len(lines), lines)
	}
	head, done := lines[0], lines[len(lines)-1]
	if head["query"] != "?- p(a, Y)." || head["cached"] != false {
		t.Errorf("header = %v, want query echo and cached=false", head)
	}
	rows := map[string]bool{}
	for _, l := range lines[1 : len(lines)-1] {
		row, ok := l["row"].([]any)
		if !ok || len(row) != 2 {
			t.Fatalf("bad row line %v", l)
		}
		rows[fmt.Sprint(row)] = true
	}
	for _, want := range []string{"[a b]", "[a c]", "[a d]"} {
		if !rows[want] {
			t.Errorf("stream missing row %s (got %v)", want, rows)
		}
	}
	if done["done"] != true || done["count"] != float64(3) || done["truncated"] != false {
		t.Errorf("done = %v, want done/3/untruncated", done)
	}
	if done["class"] == "" || done["strategy"] == "" {
		t.Errorf("done missing plan info: %v", done)
	}
	if _, hasErr := done["error"]; hasErr {
		t.Errorf("clean stream reported error: %v", done)
	}

	// Populate the cache through the materializing path; the stream must now
	// serve the frozen cached relation (header says cached) with equal rows.
	if res := getQuery(t, ts, "?- p(a, Y)."); res.Cached {
		t.Fatal("materializing query cached already: streamed miss populated the cache")
	}
	lines = ndjsonLines(t, ts, "q="+strings.ReplaceAll("?- p(a, Y).", " ", "%20"))
	if lines[0]["cached"] != true {
		t.Errorf("post-materialize stream header = %v, want cached=true", lines[0])
	}
	if got := len(lines) - 2; got != 3 {
		t.Errorf("cached stream rows = %d, want 3", got)
	}
	if got := s.Registry().Counter(mRowsStreamed).Value(); got != 6 {
		t.Errorf("%s = %d, want 6 (two streams of 3 rows)", mRowsStreamed, got)
	}
}

// TestServerStreamLimit: limit over the streaming response truncates at k
// rows, flags it in the summary, and moves the early-termination counter.
func TestServerStreamLimit(t *testing.T) {
	s, err := New("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFacts(chainFacts(40)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	lines := ndjsonLines(t, ts, "limit=4&q="+strings.ReplaceAll("?- p(n0, Y).", " ", "%20"))
	if got := len(lines) - 2; got != 4 {
		t.Fatalf("limited stream rows = %d, want 4", got)
	}
	done := lines[len(lines)-1]
	if done["truncated"] != true {
		t.Errorf("limited stream done = %v, want truncated=true", done)
	}
	if derived := done["derived"].(float64); derived >= 39 {
		t.Errorf("limited stream derived %v tuples, full answer is 39: no early stop", derived)
	}
	if got := s.Registry().Counter(mEarlyTerm).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", mEarlyTerm, got)
	}
	if got := s.Registry().Counter(mRowsStreamed).Value(); got != 4 {
		t.Errorf("%s = %d, want 4", mRowsStreamed, got)
	}
}

// TestServerLimitHitEqualsMiss: a limit of exactly the answer count is
// answered the same from the evaluating path (a result-cache miss) and from
// the cached relation (a hit) — all rows, not truncated.
func TestServerLimitHitEqualsMiss(t *testing.T) {
	_, ts := newTestServer(t, tcProgram)
	limited := "?- p(a, Y).&limit=3"
	miss := getQuery(t, ts, limited)
	getQuery(t, ts, "?- p(a, Y).") // unlimited: fills the cache
	hit := getQuery(t, ts, limited)
	if miss.Cached || !hit.Cached {
		t.Fatalf("cached = %v then %v, want a miss then a hit", miss.Cached, hit.Cached)
	}
	for _, res := range []*QueryResult{&miss, &hit} {
		sort.Slice(res.Answers, func(i, j int) bool { return fmt.Sprint(res.Answers[i]) < fmt.Sprint(res.Answers[j]) })
	}
	a, _ := json.Marshal(map[string]any{"answers": miss.Answers, "count": miss.Count, "truncated": miss.Truncated, "limit": miss.Limit})
	b, _ := json.Marshal(map[string]any{"answers": hit.Answers, "count": hit.Count, "truncated": hit.Truncated, "limit": hit.Limit})
	if string(a) != string(b) || miss.Truncated || miss.Count != 3 {
		t.Errorf("exact-limit answer differs between miss and hit (want 3 rows, not truncated):\nmiss: %s\nhit:  %s", a, b)
	}
}

// TestServerQueryLimitJSON: limit on the plain JSON endpoint answers with at
// most k rows and the truncation flag, still stopping the evaluation early.
func TestServerQueryLimitJSON(t *testing.T) {
	s, err := New("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFacts(chainFacts(40)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	res := getQuery(t, ts, "?- p(n0, Y).&limit=5")
	if len(res.Answers) != 5 || res.Count != 5 || !res.Truncated || res.Limit != 5 {
		t.Fatalf("limited JSON: %d answers count=%d truncated=%v limit=%d, want 5/5/true/5",
			len(res.Answers), res.Count, res.Truncated, res.Limit)
	}
	if res.Derived >= 39 {
		t.Errorf("limited JSON derived %d, full answer is 39: no early stop", res.Derived)
	}
	// A limit past the answer set changes nothing but the echoed field.
	res = getQuery(t, ts, "?- p(n0, Y).&limit=500")
	if len(res.Answers) != 39 || res.Truncated {
		t.Fatalf("over-limit JSON: %d answers truncated=%v, want 39/false", len(res.Answers), res.Truncated)
	}
	// Limit with zero matching answers still answers [] (not null).
	resp, err := http.Get(ts.URL + "/query?limit=3&q=" + strings.ReplaceAll("?- p(n39, Y).", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	raw := json.NewDecoder(resp.Body)
	var empty QueryResult
	if err := raw.Decode(&empty); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if empty.Answers == nil || len(empty.Answers) != 0 {
		t.Errorf("empty limited answer = %#v, want []", empty.Answers)
	}

	// Malformed limits are client errors.
	for _, u := range []string{"/query?limit=-1&q=x", "/query?limit=abc&q=x"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}
	body, _ := json.Marshal(map[string]any{"query": "?- p(n0, Y).", "limit": -3})
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative POST limit: status %d, want 400", resp.StatusCode)
	}
}

// TestServerQueryBodyLimit: POST /query beyond MaxQueryBytes is refused with
// 413 and counted as a client error — the resource-cap bugfix.
func TestServerQueryBodyLimit(t *testing.T) {
	s, err := New(tcProgram, Config{MaxQueryBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(queryRequest{Query: "?- p(" + strings.Repeat("a", 1024) + ", Y)."})
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: status %d, want 413", resp.StatusCode)
	}
	if got := s.Registry().Counter("dl_server_client_errors_total").Value(); got != 1 {
		t.Errorf("client errors = %d, want 1", got)
	}
	if got := s.Registry().Counter("dl_server_errors_total").Value(); got != 0 {
		t.Errorf("engine errors = %d, want 0", got)
	}
	// A normal-sized query still answers.
	body, _ = json.Marshal(queryRequest{Query: "?- p(a, Y)."})
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small query after limit: status %d", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerStreamDisconnect: a client abandoning a streaming response
// mid-answer must stop the evaluation (canceled counter), leak no
// goroutines, and release its pin on the snapshot so the old epoch's view
// becomes collectible after the next write.
func TestServerStreamDisconnect(t *testing.T) {
	s, err := New("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
		Config{disableMaintenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFacts(chainFacts(400)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	released := make(chan struct{})
	old := s.Snapshot()
	runtime.SetFinalizer(old.DB(), func(*storage.Database) { close(released) })
	old = nil

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/query?stream=1&q="+strings.ReplaceAll("?- p(X, Y).", " ", "%20"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
	}
	cancel() // abandon the stream mid-answer (the 400-chain closure has ~80k rows)
	resp.Body.Close()

	waitFor(t, "canceled counter", func() bool {
		return s.Registry().Counter(mCanceled).Value() >= 1
	})
	waitFor(t, "goroutines to settle", func() bool {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= base
	})

	// The disconnected stream held the only non-server reference to the
	// snapshot; after a write publishes a fresh one, the abandoned epoch's
	// view must be garbage — a leaked iterator would keep it alive.
	if _, err := s.LoadFacts("e(x, y)."); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "old snapshot release", func() bool {
		runtime.GC()
		select {
		case <-released:
			return true
		default:
			return false
		}
	})
}

// TestServerStreamQueryCancel covers StreamQuery's in-process contract: a
// canceled context surfaces eval.ErrCanceled instead of a silently partial
// answer set, and the each callback can stop the stream cleanly.
func TestServerStreamQueryCancel(t *testing.T) {
	s, err := New("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFacts(chainFacts(400)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	_, err = s.StreamQuery(ctx, "?- p(X, Y).", 0, nil, func([]string) bool {
		rows++
		if rows == 3 {
			cancel()
		}
		return true
	})
	if err == nil {
		t.Fatal("canceled StreamQuery returned nil error")
	}
	if rows >= 400*399/2 {
		t.Errorf("canceled stream delivered all %d rows", rows)
	}

	// each returning false is the consumer's own stop: clean result, no error.
	rows = 0
	res, err := s.StreamQuery(context.Background(), "?- p(X, Y).", 0, nil, func([]string) bool {
		rows++
		return rows < 5
	})
	if err != nil {
		t.Fatalf("consumer-stopped stream: %v", err)
	}
	if res.Count != 5 || rows != 5 {
		t.Errorf("consumer-stopped stream count = %d (%d rows), want 5", res.Count, rows)
	}
}
