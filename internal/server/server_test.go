package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/paper"
	"repro/internal/parser"
)

const tcProgram = `
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c). e(c, d).
`

func newTestServer(t *testing.T, src string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getQuery(t *testing.T, ts *httptest.Server, q string) QueryResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(q, " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET /query %s: status %d (%s)", q, resp.StatusCode, e["error"])
	}
	var res QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerQueryEndToEnd: answers, cache behavior and write invalidation
// through the HTTP surface.
func TestServerQueryEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, tcProgram)

	cold := getQuery(t, ts, "?- p(a, Y).")
	if cold.Count != 3 || cold.Cached {
		t.Fatalf("cold query: count=%d cached=%v, want 3/false", cold.Count, cold.Cached)
	}
	if cold.Class == "" || cold.Strategy == "" || cold.GoMaxProcs < 1 {
		t.Errorf("cold query missing plan info or gomaxprocs: %+v", cold)
	}
	warm := getQuery(t, ts, "?- p(a, Y).")
	if !warm.Cached || warm.Count != 3 || warm.Epoch != cold.Epoch {
		t.Fatalf("warm query: cached=%v count=%d epoch=%d, want true/3/%d",
			warm.Cached, warm.Count, warm.Epoch, cold.Epoch)
	}

	// A write advances the epoch and the next query sees the new edge.
	resp, err := http.Post(ts.URL+"/facts", "text/plain", strings.NewReader("e(d, x)."))
	if err != nil {
		t.Fatal(err)
	}
	var fr map[string]uint64
	json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if fr["epoch"] <= cold.Epoch {
		t.Fatalf("POST /facts epoch = %d, want > %d", fr["epoch"], cold.Epoch)
	}
	// The maintenance pass carried the entry across the write: the post-write
	// query is a cache hit at the new epoch, flagged maintained, and sees the
	// new edge.
	after := getQuery(t, ts, "?- p(a, Y).")
	if !after.Cached || !after.Maintained || after.Count != 4 || after.Epoch != fr["epoch"] {
		t.Fatalf("post-write query: cached=%v maintained=%v count=%d epoch=%d, want true/true/4/%d",
			after.Cached, after.Maintained, after.Count, after.Epoch, fr["epoch"])
	}

	// POST /query with trace returns a span tree.
	body, _ := json.Marshal(queryRequest{Query: "?- p(X, Y).", Trace: true})
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var traced QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traced.Trace == nil {
		t.Error("trace=1 returned no span tree")
	}
	if traced.Count != 10 { // TC of the 5-node chain a..d,x: 4+3+2+1
		t.Errorf("full query count = %d, want 10", traced.Count)
	}
}

// TestServerMetricsExposed scrapes /metrics and checks the serving counters
// (queries, result-cache hits/misses) moved.
func TestServerMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, tcProgram)
	getQuery(t, ts, "?- p(a, Y).")
	getQuery(t, ts, "?- p(a, Y).")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"dl_server_queries_total 2",
		"dl_resultcache_hits_total 1",
		"dl_resultcache_misses_total 1",
		"dl_server_query_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "dl_server_inflight_queries 0") {
		t.Errorf("/metrics inflight gauge not back to 0")
	}
}

// TestServerGenericFallback: a program that is not a single linear system
// is planned too — classless, on the generic parallel engine — and cached.
func TestServerGenericFallback(t *testing.T) {
	src := `
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, Z), t(Z, Y).
e(a, b). e(b, c).
`
	s, ts := newTestServer(t, src)
	if s.sys != nil {
		t.Fatal("nonlinear program extracted a linear system")
	}
	cold := getQuery(t, ts, "?- t(a, Y).")
	if cold.Count != 2 || cold.Cached || cold.Strategy != "generic-parallel" || cold.Class != "" {
		t.Fatalf("fallback cold: %+v, want 2 answers via a classless generic-parallel plan", cold)
	}
	warm := getQuery(t, ts, "?- t(a, Y).")
	if !warm.Cached || warm.Count != 2 {
		t.Fatalf("fallback warm: cached=%v count=%d", warm.Cached, warm.Count)
	}
}

// TestServerErrors: bad inputs fail with JSON errors and count into
// dl_server_errors_total; programs with embedded queries are rejected.
func TestServerErrors(t *testing.T) {
	s, ts := newTestServer(t, tcProgram)
	for _, url := range []string{
		ts.URL + "/query",              // empty q
		ts.URL + "/query?q=nonsense((", // parse error
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
	if got := s.Registry().Counter("dl_server_client_errors_total").Value(); got != 2 {
		t.Errorf("dl_server_client_errors_total = %d, want 2", got)
	}
	if got := s.Registry().Counter("dl_server_errors_total").Value(); got != 0 {
		t.Errorf("dl_server_errors_total = %d, want 0 (client mistakes are not engine errors)", got)
	}
	if _, err := New("p(X) :- e(X).\n?- p(X).", Config{}); err == nil {
		t.Error("program with an embedded query must be rejected")
	}
	if _, err := New("e(a, b).", Config{}); err == nil {
		t.Error("rule-less program must be rejected")
	}
}

// TestServerConcurrentReadWrite hammers the server with concurrent queries
// and fact writes (run under -race by `make race`); every answer must be
// internally consistent: the TC answer count for the pinned epoch must be
// non-decreasing in the epoch, since this workload only ever adds edges.
func TestServerConcurrentReadWrite(t *testing.T) {
	s, err := New("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\ne(n0, n1).", Config{})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 2
	const readers = 4
	const rounds = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fact := fmt.Sprintf("e(n%d, n%d).", w*rounds+i, w*rounds+i+1)
				if _, err := s.LoadFacts(fact); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	type seen struct {
		epoch uint64
		count int
	}
	results := make([][]seen, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := s.Query(context.Background(), "?- p(X, Y).", nil)
				if err != nil {
					t.Error(err)
					return
				}
				results[r] = append(results[r], seen{res.Epoch, res.Count})
			}
		}(r)
	}
	wg.Wait()
	// Monotonic consistency: higher epoch ⇒ no fewer answers, and equal
	// epochs ⇒ equal counts (snapshot isolation).
	byEpoch := map[uint64]int{}
	for r := range results {
		for _, sn := range results[r] {
			if prev, ok := byEpoch[sn.epoch]; ok && prev != sn.count {
				t.Fatalf("epoch %d answered both %d and %d tuples", sn.epoch, prev, sn.count)
			}
			byEpoch[sn.epoch] = sn.count
		}
	}
	var epochs []uint64
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	for _, e1 := range epochs {
		for _, e2 := range epochs {
			if e1 < e2 && byEpoch[e1] > byEpoch[e2] {
				t.Fatalf("answers shrank across epochs: %d@%d > %d@%d",
					byEpoch[e1], e1, byEpoch[e2], e2)
			}
		}
	}
	// Final state: every inserted edge is visible — the chain segments give
	// a known TC size, cross-checked against a serial evaluation.
	snap := s.Snapshot()
	final, err := s.Query(context.Background(), "?- p(X, Y).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != snap.Epoch() {
		t.Errorf("final query epoch %d != snapshot epoch %d", final.Epoch, snap.Epoch())
	}
	q, _ := parser.ParseQuery("?- p(X, Y).")
	ref, _, err := eval.Answer(eval.StrategyNaive, s.sys, q, snap.DB())
	if err != nil {
		t.Fatal(err)
	}
	if final.Count != ref.Len() {
		t.Errorf("final answer %d tuples, serial replay %d", final.Count, ref.Len())
	}
}

// TestServerLoadFactsAtomic: a bad line in the middle of a batch must
// reject the whole batch — no partial inserts, no epoch advance, no cache
// invalidation.
func TestServerLoadFactsAtomic(t *testing.T) {
	s, ts := newTestServer(t, tcProgram)
	before := getQuery(t, ts, "?- p(a, Y).")

	// Middle line has the wrong arity for e/2.
	resp, err := http.Post(ts.URL+"/facts", "text/plain",
		strings.NewReader("e(d, x).\ne(oops).\ne(x, y)."))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: status %d, want 400", resp.StatusCode)
	}
	// A syntactically broken line is rejected the same way.
	resp, err = http.Post(ts.URL+"/facts", "text/plain",
		strings.NewReader("e(q, r).\nbroken((\ne(r, s)."))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken batch: status %d, want 400", resp.StatusCode)
	}

	after := getQuery(t, ts, "?- p(a, Y).")
	if after.Epoch != before.Epoch {
		t.Errorf("failed batches advanced the epoch %d → %d", before.Epoch, after.Epoch)
	}
	if after.Count != before.Count {
		t.Errorf("failed batches changed answers %d → %d (partial insert)", before.Count, after.Count)
	}
	if !after.Cached {
		t.Error("failed batch invalidated the cache")
	}
	if s.Snapshot().Rel("e").Len() != 3 {
		t.Errorf("e has %d tuples, want the 3 seed edges only", s.Snapshot().Rel("e").Len())
	}
	// A batch that conflicts only with the live database (not itself) is
	// also rejected up front.
	if _, err := s.LoadFacts("e(a, b, c)."); err == nil {
		t.Error("arity conflict with a live relation accepted")
	}
}

// TestServerFactsAgainstProgramArities: a fact whose arity contradicts what
// the program declares — for a relation that does not exist yet — is a client
// error that loads nothing, whether it arrives by LoadFacts or POST /facts.
// Accepted, it would create a relation no rule can read: every later query
// fails, and facts are never retracted.
func TestServerFactsAgainstProgramArities(t *testing.T) {
	// a/2 and edge/2 are read by a rule and hold no facts yet.
	const (
		generic = "p(X, Y) :- e(X, Y). p(X, Y) :- a(X, Z), p(Z, W), b(W, Y). e(a, b). e(c, d). b(b, c)."
		tc      = "p(X, Y) :- e(X, Y). p(X, Y) :- edge(X, Z), p(Z, Y). e(a, b). e(c, d)."
		general = "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), p(Z, Y). q(X) :- p(X, Y), edge(Y, X). e(a, b). e(b, c)."
	)
	cases := []struct{ name, src, batch string }{
		{"IDB head", generic, "p(a)."},
		{"body literal of an empty relation", generic, "a(x, y, z)."},
		{"edge relation of the TC kernel", tc, "edge(x, y, z)."},
		{"general program", general, "edge(x, y, z)."},
		{"good lines around the bad one", generic, "e(d, x).\np(a).\na(d, a)."},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf := &syncBuffer{}
			s, err := New(c.src, Config{Logger: slog.New(slog.NewJSONHandler(buf, nil))})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(c.src, Config{}) // never sees the batch
			if err != nil {
				t.Fatal(err)
			}
			// One cached entry for an accepted write to maintain.
			if _, err := s.Query(ctx, "?- p(a, Y).", nil); err != nil {
				t.Fatal(err)
			}
			epoch, entries := s.Snapshot().Epoch(), s.Cache().Len()

			if _, err := s.LoadFacts(c.batch); err == nil {
				t.Error("LoadFacts accepted the batch")
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/facts", strings.NewReader(c.batch)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST /facts: status %d, want 400", rec.Code)
			}
			if lines := buf.lines(t); len(lines) != 1 || lines[0]["msg"] != "facts" || lines[0]["error"] != "client" {
				t.Errorf("log lines %v, want one msg=facts error=client", lines)
			}
			if got := s.Snapshot().Epoch(); got != epoch {
				t.Errorf("epoch %d → %d across rejected batches", epoch, got)
			}
			if got := s.Cache().Len(); got != entries {
				t.Errorf("cache entries %d → %d across rejected batches", entries, got)
			}

			// A hit, a cold query and a streamed one answer as if nothing
			// had been sent.
			for _, probe := range []struct {
				q              string
				stream, cached bool
			}{
				{"?- p(a, Y).", false, true},
				{"?- p(X, Y).", false, false},
				{"?- p(X, d).", true, false},
			} {
				want, err := ref.Query(ctx, probe.q, nil)
				if err != nil {
					t.Fatal(err)
				}
				var got *QueryResult
				var rows [][]string
				if probe.stream {
					got, err = s.StreamQuery(ctx, probe.q, 0, nil, func(row []string) bool {
						rows = append(rows, row)
						return true
					})
				} else if got, err = s.Query(ctx, probe.q, nil); err == nil {
					rows = got.Answers
				}
				if err != nil {
					t.Fatalf("%s: %v", probe.q, err)
				}
				if got.Cached != probe.cached || !reflect.DeepEqual(sortedRows(rows), sortedRows(want.Answers)) {
					t.Errorf("%s: cached=%v rows %v, want cached=%v rows %v", probe.q, got.Cached, rows, probe.cached, want.Answers)
				}
			}
		})
	}
	// The same contradiction inside the program text never starts a server.
	if _, err := New("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y). e(a).", Config{}); err == nil {
		t.Error("New accepted a seed fact e/1 under rules reading e/2")
	}
}

// TestServerFactsBodyLimit: POST /facts beyond MaxFactsBytes is refused
// with 413 and counted as a client error, not an engine error.
func TestServerFactsBodyLimit(t *testing.T) {
	s, err := New(tcProgram, Config{MaxFactsBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	big := strings.Repeat("e(aaaaaaaa, bbbbbbbb).\n", 20)
	resp, err := http.Post(ts.URL+"/facts", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if got := s.Registry().Counter("dl_server_client_errors_total").Value(); got != 1 {
		t.Errorf("client errors = %d, want 1", got)
	}
	if got := s.Registry().Counter("dl_server_errors_total").Value(); got != 0 {
		t.Errorf("engine errors = %d, want 0", got)
	}
	// A small batch still loads.
	resp, err = http.Post(ts.URL+"/facts", "text/plain", strings.NewReader("e(d, x)."))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch after limit: status %d", resp.StatusCode)
	}
}

// TestServerMaintenanceAcrossWrites: repeated writes keep the cached entry
// warm (maintained hits with correct counts), the maintenance counters
// move, and disableMaintenance restores the cold-start behavior.
func TestServerMaintenanceAcrossWrites(t *testing.T) {
	s, ts := newTestServer(t, tcProgram)
	first := getQuery(t, ts, "?- p(a, Y).")
	if first.Count != 3 {
		t.Fatalf("seed count = %d, want 3", first.Count)
	}
	chain := []string{"d", "x", "y", "z"}
	for i := 0; i+1 < len(chain); i++ {
		if _, err := s.LoadFacts(fmt.Sprintf("e(%s, %s).", chain[i], chain[i+1])); err != nil {
			t.Fatal(err)
		}
		res := getQuery(t, ts, "?- p(a, Y).")
		if !res.Cached || !res.Maintained {
			t.Fatalf("write %d: cached=%v maintained=%v, want true/true", i, res.Cached, res.Maintained)
		}
		if res.Count != 3+i+1 {
			t.Fatalf("write %d: count = %d, want %d", i, res.Count, 3+i+1)
		}
	}
	if got := s.Registry().Counter("dl_resultcache_maintained_total").Value(); got < 3 {
		t.Errorf("maintained counter = %d, want >= 3", got)
	}

	// With maintenance disabled, a write cold-starts the entry again.
	s2, ts2 := func() (*Server, *httptest.Server) {
		srv, err := New(tcProgram, Config{disableMaintenance: true})
		if err != nil {
			t.Fatal(err)
		}
		h := httptest.NewServer(srv.Handler())
		t.Cleanup(h.Close)
		return srv, h
	}()
	getQuery(t, ts2, "?- p(a, Y).")
	if _, err := s2.LoadFacts("e(d, x)."); err != nil {
		t.Fatal(err)
	}
	cold := getQuery(t, ts2, "?- p(a, Y).")
	if cold.Cached || cold.Maintained {
		t.Errorf("disabled maintenance: cached=%v maintained=%v, want false/false", cold.Cached, cold.Maintained)
	}
	if cold.Count != 4 {
		t.Errorf("disabled maintenance: count = %d, want 4", cold.Count)
	}
}

// TestServerMaintenanceGeneric: the generic-program path is maintained too
// (shared fixpoint carried across the write).
func TestServerMaintenanceGeneric(t *testing.T) {
	src := `
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, Z), t(Z, Y).
e(a, b). e(b, c).
`
	s, ts := newTestServer(t, src)
	if s.sys != nil {
		t.Fatal("nonlinear program extracted a linear system")
	}
	if got := getQuery(t, ts, "?- t(a, Y)."); got.Count != 2 {
		t.Fatalf("seed count = %d, want 2", got.Count)
	}
	if _, err := s.LoadFacts("e(c, d)."); err != nil {
		t.Fatal(err)
	}
	res := getQuery(t, ts, "?- t(a, Y).")
	if !res.Cached || !res.Maintained || res.Count != 3 {
		t.Fatalf("generic maintained: cached=%v maintained=%v count=%d, want true/true/3",
			res.Cached, res.Maintained, res.Count)
	}
}

// TestServerQueryValidation: impossible queries are client errors (400),
// not engine errors.
func TestServerQueryValidation(t *testing.T) {
	s, ts := newTestServer(t, tcProgram)
	for _, q := range []string{
		"?- q(a, Y).",    // wrong predicate for the single served system
		"?- p(a, Y, Z).", // wrong arity
	} {
		resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(q, " ", "%20"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if got := s.Registry().Counter("dl_server_client_errors_total").Value(); got != 2 {
		t.Errorf("client errors = %d, want 2", got)
	}
	if got := s.Registry().Counter("dl_server_errors_total").Value(); got != 0 {
		t.Errorf("engine errors = %d, want 0", got)
	}
}

// TestServerStoredFactUnderHead: a fact stored under the planned predicate
// itself — in the program text, or accepted later by POST /facts — must be
// built on like any derived tuple, whatever the plan class. The TC kernel and
// the expansion union assume there is none, so a TC or bounded plan runs
// generically from then on (class unchanged), while a stable plan runs the
// source's rules as it always does: streamed, cold, hit and after a further
// write all equal the naive oracle over the server's own snapshot.
func TestServerStoredFactUnderHead(t *testing.T) {
	// Each statement's strategy for its all-free and its bound query before
	// the fact (a TC plan runs the all-free one generically), then for both
	// after it.
	for _, f := range [][4]string{
		{"s1a", "generic-parallel", "tc-frontier", "generic-parallel"},
		{"s10", "bounded-union", "bounded-union", "generic-parallel"},
		{"s4a", "stable-parallel", "stable-parallel", "stable-parallel"},
	} {
		id := f[0]
		st, _ := paper.ByID(id)
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
		stored := make([]string, sys.Arity())
		for i := range free {
			free[i], stored[i] = fmt.Sprintf("X%d", i), "zz"
		}
		stored[0] = "n0"
		vars := strings.Join(free, ", ")
		src := fmt.Sprintf("%v\n%s(%[3]s) :- e(%[3]s).\n%s", st.Rule, sys.Pred(), vars, facts.String())
		fact := fmt.Sprintf("%s(%s).", sys.Pred(), strings.Join(stored, ", "))
		queries := []string{
			fmt.Sprintf("?- %s(%s).", sys.Pred(), vars),
			fmt.Sprintf("?- %s(%s).", sys.Pred(), strings.Join(append([]string{"n0"}, free[1:]...), ", ")),
		}
		for _, via := range []string{"text", "post"} {
			t.Run(id+"/"+via, func(t *testing.T) {
				text := src
				if via == "text" {
					text += fact
				}
				s, ts := newTestServer(t, text)
				oracle := func(qs string) []string {
					t.Helper()
					q, _ := parser.ParseQuery(qs)
					snap := s.Snapshot()
					out, _, err := eval.NaiveOpts(s.sys.Program(), snap.DB(), eval.Opts{})
					if err != nil {
						t.Fatal(err)
					}
					ans, err := eval.AnswerQuery(out, q)
					if err != nil {
						t.Fatal(err)
					}
					var rows [][]string
					for _, tp := range ans.Tuples() {
						row := make([]string, len(tp))
						for i, v := range tp {
							row[i] = snap.Syms().Name(v)
						}
						rows = append(rows, row)
					}
					return sortedRows(rows)
				}
				check := func(when, q string, got formResult, cached bool, strategy string) {
					t.Helper()
					if want := oracle(q); !reflect.DeepEqual(got.Rows, want) {
						t.Errorf("%s %s: %d rows, oracle %d", when, q, len(got.Rows), len(want))
					}
					if got.Cached != cached || got.Strategy != strategy || got.Class == "" {
						t.Errorf("%s %s: cached=%v strategy=%q class=%q, want cached=%v strategy=%q and the class kept",
							when, q, got.Cached, got.Strategy, got.Class, cached, strategy)
					}
				}
				if via == "post" {
					// Cached by the classified kernel first, so the write has
					// entries of that kind to carry.
					for i, q := range queries {
						check("before the fact", q, responseForms[0].ask(t, s, ts, q, 0), false, f[1+i])
					}
					resp, err := http.Post(ts.URL+"/facts", "text/plain", strings.NewReader(fact))
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("POST /facts %s: status %d", fact, resp.StatusCode)
					}
					// Every entry is carried on by the original rules: the
					// bounded ones recomputed, the others by the delta pass over
					// the program's view. Each reports the plan that carried it.
					for _, q := range queries {
						check("carried across the fact", q, responseForms[0].ask(t, s, ts, q, 0), true, f[3])
					}
					s, ts = newTestServer(t, src) // and the same arrival with nothing cached
					if _, err := s.LoadFacts(fact); err != nil {
						t.Fatal(err)
					}
				}
				for _, q := range queries {
					check("streamed", q, responseForms[1].ask(t, s, ts, q, 0), false, f[3])
					check("cold", q, responseForms[2].ask(t, s, ts, q, 0), false, f[3])
					check("hit", q, responseForms[4].ask(t, s, ts, q, 0), true, f[3])
				}
				if _, err := s.LoadFacts("e(" + strings.Join(stored, ", ") + ")."); err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					got := getQuery(t, ts, q)
					if !got.Maintained {
						t.Errorf("after a write %s: maintained=false, want the delta pass", q)
					}
					check("after a write", q, summarise(&got, got.Answers), true, f[3])
				}
			})
		}
	}
}

// TestServerTCAllFreeReportsCost: the all-free query of a TC plan runs the
// generic plan compiled with it, whose order book puts a cost on the /query
// response; the bound query stays on the TC kernel, which has none.
func TestServerTCAllFreeReportsCost(t *testing.T) {
	_, ts := newTestServer(t, `
p(X, Y) :- a(X, Z), p(Z, Y).
p(X, Y) :- e(X, Y).
a(a, b). a(b, c). a(c, d). e(b, x). e(d, y).
`)
	free := getQuery(t, ts, "?- p(X, Y).")
	if free.Strategy != "generic-parallel" || free.Class != "A5" || free.Cost <= 0 || free.Count != 6 {
		t.Errorf("all-free: strategy=%q class=%q cost=%d count=%d, want generic-parallel A5 with a cost and 6 answers",
			free.Strategy, free.Class, free.Cost, free.Count)
	}
	if bound := getQuery(t, ts, "?- p(a, Y)."); bound.Strategy != "tc-frontier" || bound.Cost != 0 || bound.Count != 2 {
		t.Errorf("bound: strategy=%q cost=%d count=%d, want tc-frontier with no cost and 2 answers", bound.Strategy, bound.Cost, bound.Count)
	}
}

// TestServerPlanSurvivesWrite: plans are keyed by program, adornment and
// statistics epoch — not by snapshot epoch — so one compile serves the cold
// query, the maintenance pass of a one-fact write and the next cold query of
// the same form.
func TestServerPlanSurvivesWrite(t *testing.T) {
	s, _ := newTestServer(t, tcProgram)
	ask := func(q string) {
		t.Helper()
		if res, err := s.Query(context.Background(), q, nil); err != nil || res.Cached {
			t.Fatalf("%s: cached=%v err=%v, want a cold answer", q, res != nil && res.Cached, err)
		}
	}
	ask("?- p(a, Y).")
	if _, err := s.LoadFacts("e(d, e)."); err != nil {
		t.Fatal(err)
	}
	ask("?- p(b, Y).")
	reg := s.Registry()
	misses, hits := reg.Counter("dl_plancache_misses_total").Value(), reg.Counter("dl_plancache_hits_total").Value()
	if misses != 1 || hits != 2 || s.planner.Len() != 1 {
		t.Errorf("plan cache: %d misses, %d hits, %d plans; want 1 compile, hits by the maintenance pass and the second query, 1 plan",
			misses, hits, s.planner.Len())
	}
}

// TestServerFactsReportsCarried: POST /facts says how many of the maintained
// entries the write could not reach (re-keyed as they were), next to the
// maintained and recomputed counts, and the counter moves with it.
func TestServerFactsReportsCarried(t *testing.T) {
	s, ts := newTestServer(t, tcProgram)
	getQuery(t, ts, "?- p(a, Y).")
	post := func(facts string) map[string]float64 {
		t.Helper()
		resp, err := http.Post(ts.URL+"/facts", "text/plain", strings.NewReader(facts))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// An edge between nodes a does not reach: nothing to do for p(a, Y).
	if out := post("e(far1, far2)."); out["maintained"] != 1 || out["carried"] != 1 || out["recomputed"] != 0 {
		t.Errorf("unreachable write: %v, want maintained=1 carried=1 recomputed=0", out)
	}
	// An edge off the chain's end: the entry grows.
	if out := post("e(d, x)."); out["maintained"] != 1 || out["carried"] != 0 {
		t.Errorf("reachable write: %v, want maintained=1 carried=0", out)
	}
	if res := getQuery(t, ts, "?- p(a, Y)."); !res.Cached || !res.Maintained || res.Count != 4 {
		t.Errorf("after both writes: cached=%v maintained=%v count=%d, want true/true/4", res.Cached, res.Maintained, res.Count)
	}
	if got := s.Registry().Counter("dl_resultcache_carried_total").Value(); got != 1 {
		t.Errorf("carried counter = %d, want 1", got)
	}
}
