package repro

// End-to-end integration tests: build and drive the command-line tools and
// the runnable examples exactly as a user would.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// runToolErr is runTool for invocations expected to fail: it returns the
// combined output and whether the tool exited non-zero.
func runToolErr(t *testing.T, stdin string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	return string(out), err != nil
}

func TestCLIDlclass(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := "p(X, Y) :- a(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n"
	out := runTool(t, in, "run", "./cmd/dlclass", "-query", "?- p(a, Y).", "-resolution", "2", "-dot")
	for _, want := range []string{
		"class: A5",
		"strongly stable: true",
		"plan: ∪_{k=0}^∞ [ σ(a)^k - E ]",
		"resolution graph G_2:",
		"digraph",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dlclass output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIDlclassStableTransformation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := `p(X1, X2, X3) :- a(X1, Y3), b(X2, Y1), c(Y2, X3), p(Y1, Y2, Y3).
p(X1, X2, X3) :- e(X1, X2, X3).
`
	out := runTool(t, in, "run", "./cmd/dlclass", "-stable")
	if !strings.Contains(out, "class: A3") || !strings.Contains(out, "equivalent stable system:") {
		t.Errorf("dlclass -stable output:\n%s", out)
	}
}

func TestCLIDlrun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := `p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c). e(c, d).
?- p(a, Y).
`
	for _, strategy := range []string{"naive", "seminaive", "parallel", "magic", "state", "class", "auto"} {
		out := runTool(t, in, "run", "./cmd/dlrun", "-strategy", strategy, "-stats")
		for _, want := range []string{"(3 answers)", "p(a, b).", "p(a, c).", "p(a, d).", "% stats:"} {
			if !strings.Contains(out, want) {
				t.Errorf("dlrun -strategy %s missing %q:\n%s", strategy, want, out)
			}
		}
	}
}

// TestCLIDlrunAutoPlanCache: in one dlrun invocation, the second identical
// query must be served from the plan cache — visible under -trace.
func TestCLIDlrunAutoPlanCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := `p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c).
?- p(a, Y).
?- p(b, Y).
`
	out := runTool(t, in, "run", "./cmd/dlrun", "-strategy", "auto", "-trace")
	miss := strings.Index(out, "cache=miss")
	hit := strings.Index(out, "cache=hit")
	if miss < 0 || hit < 0 || hit < miss {
		t.Errorf("expected a cache miss then a hit in trace output:\n%s", out)
	}
	if !strings.Contains(out, "strategy=tc-frontier") {
		t.Errorf("auto did not pick the TC frontier kernel:\n%s", out)
	}
}

// TestCLIDlrunRejectsNonLinear: a non-linear rule fed to a compiled strategy
// must produce a diagnostic, never a panic (regression for the rewrite-layer
// panics that used to reach the user).
func TestCLIDlrunRejectsNonLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := `p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
e(a, b).
?- p(a, Y).
`
	for _, strategy := range []string{"class", "magic", "state", "auto"} {
		out, failed := runToolErr(t, in, "run", "./cmd/dlrun", "-strategy", strategy)
		if !failed {
			t.Errorf("dlrun -strategy %s accepted a non-linear program:\n%s", strategy, out)
		}
		if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
			t.Errorf("dlrun -strategy %s panicked instead of erroring:\n%s", strategy, out)
		}
		if !strings.Contains(out, "dlrun:") {
			t.Errorf("dlrun -strategy %s: missing diagnostic prefix:\n%s", strategy, out)
		}
	}
}

// TestCLIDlclassRejectsNonLinear mirrors the guard for dlclass.
func TestCLIDlclassRejectsNonLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := "p(X, Y) :- p(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n"
	out, failed := runToolErr(t, in, "run", "./cmd/dlclass")
	if !failed {
		t.Errorf("dlclass accepted a non-linear rule:\n%s", out)
	}
	if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
		t.Errorf("dlclass panicked instead of erroring:\n%s", out)
	}
}

func TestCLIDlrunFactsFileAndREPL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	facts := filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(facts, []byte("edge(a, b).\nedge(b, c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := "p(X, Y) :- edge(X, Y).\np(X, Y) :- edge(X, Z), p(Z, Y).\n?- p(a, Y).\n"
	out := runTool(t, in, "run", "./cmd/dlrun", "-facts", facts, "-i")
	if !strings.Contains(out, "(2 answers)") || !strings.Contains(out, "p(a, c).") {
		t.Errorf("REPL output:\n%s", out)
	}
}

func TestCLIDlbenchQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out := runTool(t, "", "run", "./cmd/dlbench", "-quick", "-experiment", "figures")
	if strings.Contains(out, "FAIL") || !strings.Contains(out, "all checks passed") {
		t.Errorf("dlbench figures:\n%s", out)
	}
	// The report ends at Q7: the served system's performance is bench's job.
	out, _ = runToolErr(t, "", "run", "./cmd/dlbench", "-experiment", "q9")
	if !strings.Contains(out, "exit status 2") || !strings.Contains(out, "(want all, figures, examples, theorems, q1, q2, q3, q4, q5, q6, q7)") {
		t.Errorf("dlbench -experiment q9: want exit status 2 and an experiment list ending at q7:\n%s", out)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"./examples/quickstart", []string{"naive baseline agrees: true", "ancestor(kim, drew)"}},
		{"./examples/flights", []string{"agree: true", "class A1"}},
		{"./examples/bom", []string{"naive agrees: true", "costlier(frame, carbonTube)"}},
		{"./examples/audit", []string{"staleCred(ml, userdb)", "orphan(quarantine)", "naive and semi-naive agree: true"}},
	}
	for _, tc := range cases {
		out := runTool(t, "", "run", tc.pkg)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s missing %q", tc.pkg, want)
			}
		}
	}
}

func TestExampleClassifyTour(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; slow")
	}
	out := runTool(t, "", "run", "./examples/classifytour")
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("classify tour reported a mismatch:\n%s", out)
	}
	if got := strings.Count(out, "MATCHES naive baseline"); got != 13 {
		t.Errorf("tour validated %d statements, want 13", got)
	}
}

// TestCLIDlrunTraceJSON: -trace-json must emit a well-formed span tree
// containing the planner and fixpoint phases for an auto query.
func TestCLIDlrunTraceJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	in := `p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c). e(c, d).
?- p(a, Y).
`
	runTool(t, in, "run", "./cmd/dlrun", "-strategy", "auto", "-trace-json", tracePath)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name     string  `json:"name"`
		StartUS  *int64  `json:"start_us"`
		DurUS    *int64  `json:"dur_us"`
		Children []*span `json:"children"`
	}
	var root span
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	names := map[string]int{}
	var walk func(s *span)
	walk = func(s *span) {
		if s.Name == "" || s.StartUS == nil || s.DurUS == nil {
			t.Errorf("span missing required fields: %+v", s)
		}
		names[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(&root)
	if root.Name != "dlrun" {
		t.Errorf("root span = %q, want dlrun", root.Name)
	}
	for _, want := range []string{"parse", "query", "plan-cache", "classify", "plan-compile", "fixpoint", "round"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (saw %v)", want, names)
		}
	}
	if names["round"] < 2 {
		t.Errorf("trace has %d round spans, want several", names["round"])
	}
}

// TestCLIDlrunServe: -serve must expose working /metrics, /debug/vars and
// /debug/pprof/ endpoints while queries run.
func TestCLIDlrunServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	in := `p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c). e(c, d).
?- p(a, Y).
`
	// Build the binary and run it directly (not `go run`): the test must be
	// able to kill the server process itself, not just the go tool.
	bin := filepath.Join(t.TempDir(), "dlrun")
	runTool(t, "", "build", "-o", bin, "./cmd/dlrun")
	cmd := exec.Command(bin, "-serve", "127.0.0.1:0")
	cmd.Dir = "."
	cmd.Stdin = strings.NewReader(in)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// dlrun prints "%% serving http://ADDR/metrics ..." once the listener is
	// up, then answers the queries and blocks.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "serving http://") {
			rest := line[strings.Index(line, "http://")+len("http://"):]
			base = "http://" + rest[:strings.Index(rest, "/")]
		}
		if strings.Contains(line, "answers)") {
			break // queries done: counters are flushed
		}
	}
	if base == "" {
		t.Fatal("dlrun never printed the serving address")
	}

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "dl_rounds_total") ||
		!strings.Contains(body, "dl_tuples_derived_total") {
		t.Errorf("/metrics missing engine counters:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "datalog") {
		t.Errorf("/debug/vars missing datalog var:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index:\n%s", body)
	}
}

// TestCLIDlserveSmoke builds dlserve, serves the TC example and drives the
// query API end to end: cold query, warm (cached) query, a fact write that
// advances the epoch, and a /metrics scrape asserting the result cache
// counted one hit and the serving counters moved. This is the test behind
// `make serve-smoke`.
func TestCLIDlserveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	program := filepath.Join(dir, "tc.dl")
	src := `p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c). e(c, d).
`
	if err := os.WriteFile(program, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "dlserve")
	runTool(t, "", "build", "-o", bin, "./cmd/dlserve")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-program", program)
	cmd.Dir = "."
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// dlserve prints "% dlserve serving http://ADDR/query ..." once bound.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "serving http://") {
			rest := line[strings.Index(line, "http://")+len("http://"):]
			base = "http://" + rest[:strings.Index(rest, "/")]
			break
		}
	}
	if base == "" {
		t.Fatal("dlserve never printed the serving address")
	}

	query := func(q string) map[string]any {
		resp, err := http.Get(base + "/query?q=" + strings.ReplaceAll(q, " ", "%20"))
		if err != nil {
			t.Fatalf("GET /query: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET /query %s: status %d: %s", q, resp.StatusCode, body)
		}
		var res map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := query("?- p(a, Y).")
	if cold["count"].(float64) != 3 || cold["cached"].(bool) {
		t.Fatalf("cold query: %v", cold)
	}
	warm := query("?- p(a, Y).")
	if !warm["cached"].(bool) {
		t.Fatalf("second query not served from the result cache: %v", warm)
	}

	// A write advances the epoch; maintenance carries the cached entry
	// forward, so the next query is a hit at the new epoch, flagged
	// maintained, and sees the new edge.
	resp, err := http.Post(base+"/facts", "text/plain", strings.NewReader("e(d, x)."))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	after := query("?- p(a, Y).")
	if after["count"].(float64) != 4 || !after["cached"].(bool) || after["maintained"] != true {
		t.Fatalf("post-write query: %v", after)
	}
	if after["epoch"].(float64) <= cold["epoch"].(float64) {
		t.Fatalf("epoch did not advance: %v -> %v", cold["epoch"], after["epoch"])
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"dl_resultcache_hits_total 2",
		"dl_resultcache_misses_total 1",
		"dl_resultcache_maintained_total 1",
		"dl_server_queries_total 3",
		"dl_server_inflight_queries 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Streaming smoke: the NDJSON response is header, limit'ed rows, then a
	// truncated summary, and the streaming counters move.
	sresp, err := http.Get(base + "/query?stream=1&limit=2&q=" +
		strings.ReplaceAll("?- p(a, Y).", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	ssc := bufio.NewScanner(sresp.Body)
	for ssc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(ssc.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ssc.Text(), err)
		}
		lines = append(lines, obj)
	}
	sresp.Body.Close()
	if len(lines) != 4 { // header + 2 rows + done
		t.Fatalf("stream lines = %d, want 4: %v", len(lines), lines)
	}
	done := lines[len(lines)-1]
	if done["done"] != true || done["count"].(float64) != 2 || done["truncated"] != true {
		t.Fatalf("stream summary: %v, want 2 rows truncated", done)
	}
	mresp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics = string(body)
	for _, want := range []string{
		"dl_query_rows_streamed_total 2",
		"dl_query_early_terminations_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCLIDlserveDebugEndpoints starts dlserve with the observability flags
// cranked to their most visible settings (every query slow, every query
// trace-sampled) and drives the debug surface end to end: the structured
// startup line, request-ID echo, the query journal, the slow-query ring
// with an attached span tree, /statz percentiles and /readyz.
func TestCLIDlserveDebugEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	program := filepath.Join(dir, "tc.dl")
	src := `p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
e(a, b). e(b, c). e(c, d).
`
	if err := os.WriteFile(program, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "dlserve")
	runTool(t, "", "build", "-o", bin, "./cmd/dlserve")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-program", program,
		"-slow-query", "1ns", "-trace-sample", "1", "-journal-size", "32")
	cmd.Dir = "."
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The structured startup line (stderr) precedes the serving line
	// (stdout); both arrive on the combined pipe in order.
	var base, startLine string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"msg":"starting"`) {
			startLine = line
		}
		if strings.Contains(line, "serving http://") {
			rest := line[strings.Index(line, "http://")+len("http://"):]
			base = "http://" + rest[:strings.Index(rest, "/")]
			break
		}
	}
	if base == "" {
		t.Fatal("dlserve never printed the serving address")
	}
	if startLine == "" {
		t.Fatal("dlserve never logged its effective config")
	}
	var start map[string]any
	if err := json.Unmarshal([]byte(startLine), &start); err != nil {
		t.Fatalf("startup line is not JSON: %q: %v", startLine, err)
	}
	for _, key := range []string{"addr", "program", "gomaxprocs", "journal_size", "slow_query_threshold", "trace_sample", "go_version"} {
		if _, ok := start[key]; !ok {
			t.Errorf("startup line missing %q: %v", key, start)
		}
	}

	// One query with a client-supplied correlation ID.
	req, err := http.NewRequest("GET", base+"/query?q="+strings.ReplaceAll("?- p(X, Y).", " ", "%20"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "cli-debug-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "cli-debug-1" {
		t.Errorf("X-Request-Id echoed as %q, want cli-debug-1", got)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	getJSON := func(path string, v any) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return resp.StatusCode
	}

	// The 1ns threshold puts the completed query in both rings, and the
	// 1-in-1 sampler attached a span tree the client never asked for.
	var slow struct {
		SlowThresholdUS int64            `json:"slow_threshold_us"`
		Slow            []map[string]any `json:"slow"`
	}
	if code := getJSON("/debug/queries/slow", &slow); code != 200 {
		t.Fatalf("GET /debug/queries/slow = %d", code)
	}
	if len(slow.Slow) != 1 {
		t.Fatalf("slow ring = %d records, want 1: %v", len(slow.Slow), slow.Slow)
	}
	rec := slow.Slow[0]
	if rec["id"] != "cli-debug-1" || rec["class"] == nil || rec["sampled"] != true {
		t.Errorf("slow record = %v, want id=cli-debug-1 with class and sampled", rec)
	}
	if trace, ok := rec["trace"].(map[string]any); !ok || trace["name"] != "query" {
		t.Errorf("slow record trace = %v, want span tree rooted at \"query\"", rec["trace"])
	}

	var journal struct {
		Inflight []map[string]any `json:"inflight"`
		Recent   []map[string]any `json:"recent"`
	}
	if code := getJSON("/debug/queries", &journal); code != 200 {
		t.Fatalf("GET /debug/queries = %d", code)
	}
	if len(journal.Recent) != 1 || journal.Recent[0]["id"] != "cli-debug-1" {
		t.Errorf("journal recent = %v, want the cli-debug-1 record", journal.Recent)
	}

	var statz map[string]any
	if code := getJSON("/statz", &statz); code != 200 {
		t.Fatalf("GET /statz = %d", code)
	}
	bi, ok := statz["dl_build_info"].(map[string]any)
	if !ok || bi["go_version"] == "" {
		t.Errorf("/statz dl_build_info = %v, want build labels", statz["dl_build_info"])
	}
	foundPercentiles := false
	for name, v := range statz {
		if h, ok := v.(map[string]any); ok {
			if _, ok := h["p50"]; ok && h["p90"] != nil && h["p99"] != nil {
				foundPercentiles = true
				_ = name
			}
		}
	}
	if !foundPercentiles {
		t.Errorf("/statz has no histogram percentile summaries: %v", statz)
	}

	var ready map[string]any
	if code := getJSON("/readyz", &ready); code != 200 || ready["ready"] != true {
		t.Errorf("/readyz = %d %v, want 200 ready=true", 200, ready)
	}
}
