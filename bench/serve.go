package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/storage"
)

// node is one fixture's server.Server behind a real loopback listener. The
// server gets the generated program and facts and the default
// server.Config{}; nothing about it is benchmark-only.
type node struct {
	fx   *fixture
	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
	base string        // "http://127.0.0.1:port"
}

// startNode is what setup_s times: parse the program, load the generated
// EDB, publish the first snapshot, bring the listener up and have /readyz
// answer 200 (which compiles the serving plan once).
func startNode(fx *fixture, hc *http.Client) (*node, error) {
	srv, err := server.New(fx.program, server.Config{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fx.class, err)
	}
	if _, err := srv.LoadFacts(fx.facts); err != nil {
		return nil, fmt.Errorf("%s: load facts: %w", fx.class, err)
	}
	n := &node{fx: fx, srv: srv}
	if hc == nil {
		return n, nil // library-only node (the traced run's Server.* calls)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.hs = &http.Server{Handler: srv.Handler()}
	n.done = make(chan struct{})
	n.base = "http://" + ln.Addr().String()
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := hc.Get(n.base + "/readyz")
	if err != nil {
		n.stop()
		return nil, fmt.Errorf("%s: readyz: %w", fx.class, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.stop()
		return nil, fmt.Errorf("%s: readyz answered %d", fx.class, resp.StatusCode)
	}
	return n, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (n *node) stop() {
	if n != nil && n.hs != nil {
		n.hs.Close()
		<-n.done
	}
}

// startNodes sets up one node per fixture and returns the set-up time.
func startNodes(fxs []*fixture, hc *http.Client) ([]*node, float64, error) {
	t0 := time.Now()
	nodes := make([]*node, 0, len(fxs))
	for _, fx := range fxs {
		n, err := startNode(fx, hc)
		if err != nil {
			stopNodes(nodes)
			return nil, 0, err
		}
		nodes = append(nodes, n)
	}
	return nodes, time.Since(t0).Seconds(), nil
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// newHTTPClient returns a keep-alive client sized for the harness's few
// clients; compression is off so bytes read are bytes encoded.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

type opKind uint8

const (
	opQuery  opKind = iota // GET /query
	opWrite                // POST /facts
	opStream               // GET /query?stream=1&limit=10
)

const streamLimit = 10

// op is one generated operation. Everything the timed loop needs is
// precomputed so the generator's cost stays out of the request.
type op struct {
	class int    // index into the fixtures
	kind  opKind //
	text  string // query text or fact line
	path  string // request path and query string
	// wantCached is the expected "cached" flag of a query: 1 true, 0 false,
	// -1 either (a hot query racing a write on another client).
	wantCached int
}

func queryOp(class int, q string, wantCached int) op {
	return op{class: class, kind: opQuery, text: q, path: "/query?q=" + url.QueryEscape(q), wantCached: wantCached}
}

func streamOp(class int, q string) op {
	return op{class: class, kind: opStream, text: q,
		path: fmt.Sprintf("/query?stream=1&limit=%d&q=%s", streamLimit, url.QueryEscape(q)), wantCached: 0}
}

func writeOp(class int, f string) op {
	return op{class: class, kind: opWrite, text: f, path: "/facts"}
}

// httpResult is what one HTTP operation measured: microseconds from request
// sent to body fully read, and for a stream to the first row line parsed.
type httpResult struct {
	totalUS    float64
	firstRowUS float64
	status     int
	err        error
}

// conn is one closed-loop client: its HTTP client plus a reused body buffer,
// so a timed operation only reads the body to EOF.
type conn struct {
	hc   *http.Client
	body bytes.Buffer
}

// do performs the operation against the node and leaves the response body in
// c.body.
func (c *conn) do(n *node, o op) httpResult {
	c.body.Reset()
	t0 := time.Now()
	var resp *http.Response
	var err error
	if o.kind == opWrite {
		resp, err = c.hc.Post(n.base+o.path, "text/plain", strings.NewReader(o.text))
	} else {
		resp, err = c.hc.Get(n.base + o.path)
	}
	if err != nil {
		return httpResult{err: err}
	}
	defer resp.Body.Close()
	res := httpResult{status: resp.StatusCode}
	if o.kind == opStream {
		// NDJSON: header line, row lines, done line.
		br := bufio.NewReader(resp.Body)
		for {
			line, rerr := br.ReadBytes('\n')
			if res.firstRowUS == 0 && bytes.HasPrefix(line, []byte(`{"row":`)) {
				res.firstRowUS = float64(time.Since(t0)) / 1e3
			}
			c.body.Write(line)
			if rerr != nil {
				if rerr != io.EOF {
					res.err = rerr
				}
				break
			}
		}
	} else if _, err := c.body.ReadFrom(resp.Body); err != nil {
		res.err = err
	}
	res.totalUS = float64(time.Since(t0)) / 1e3
	return res
}

// check is the per-operation check that needs no JSON decode: status, and for
// queries the cached flag and the strategy as they appear in the encoded
// body. It returns "" when the operation is fine.
func (c *conn) check(n *node, o op, r httpResult) string {
	switch {
	case r.err != nil:
		return fmt.Sprintf("%s %s: %v", n.fx.class, o.text, r.err)
	case r.status < 200 || r.status > 299:
		return fmt.Sprintf("%s %s: HTTP %d: %s", n.fx.class, o.text, r.status, bytes.TrimSpace(c.body.Bytes()))
	case o.kind == opWrite:
		return ""
	}
	b := c.body.Bytes()
	if o.wantCached == 0 && !bytes.Contains(b, []byte(`"cached":false`)) ||
		o.wantCached == 1 && !bytes.Contains(b, []byte(`"cached":true`)) {
		return fmt.Sprintf("%s %s: cached flag is not %d", n.fx.class, o.text, o.wantCached)
	}
	if !bytes.Contains(b, []byte(`"strategy":"`+n.fx.strategy+`"`)) {
		return fmt.Sprintf("%s %s: strategy is not %s", n.fx.class, o.text, n.fx.strategy)
	}
	if o.kind == opStream && !bytes.Contains(b, []byte(`"done":true`)) {
		return fmt.Sprintf("%s %s: stream ended without a done line", n.fx.class, o.text)
	}
	return ""
}

// rowKey renders one answer row as a set key.
func rowKey(row []string) string { return strings.Join(row, "\x00") }

// answers decodes the rows of the response in c.body: the answers array of a
// JSON body or the row lines of an NDJSON stream.
func (c *conn) answers(o op) ([]string, error) {
	var rows []string
	if o.kind == opStream {
		sc := bufio.NewScanner(bytes.NewReader(c.body.Bytes()))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line struct {
				Row []string `json:"row"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return nil, err
			}
			if line.Row != nil {
				rows = append(rows, rowKey(line.Row))
			}
		}
		return rows, sc.Err()
	}
	var res server.QueryResult
	if err := json.Unmarshal(c.body.Bytes(), &res); err != nil {
		return nil, err
	}
	if res.Count != len(res.Answers) {
		return nil, fmt.Errorf("count %d but %d answers", res.Count, len(res.Answers))
	}
	for _, row := range res.Answers {
		rows = append(rows, rowKey(row))
	}
	return rows, nil
}

// oracle answers queries by naive bottom-up evaluation (eval.StrategyNaive's
// engine) over a fact set: the reference every served answer is compared
// with. The fixpoint is computed once per fact set, queries select from it.
type oracle struct {
	idb []*storage.Database // naive fixpoint per fixture
}

// newOracle evaluates each fixture's program naively over its facts plus the
// extra fact lines (the writes a workload applies).
func newOracle(fxs []*fixture, extra [][]string) (*oracle, error) {
	o := &oracle{}
	for i, fx := range fxs {
		prog, _, err := parser.ParseProgram(fx.program)
		if err != nil {
			return nil, err
		}
		db := storage.NewDatabase()
		if err := db.LoadFacts(fx.facts); err != nil {
			return nil, err
		}
		if extra != nil {
			if err := db.LoadFacts(strings.Join(extra[i], "\n")); err != nil {
				return nil, err
			}
		}
		out, _, err := eval.NaiveOpts(prog, db, eval.Opts{})
		if err != nil {
			return nil, err
		}
		o.idb = append(o.idb, out)
	}
	return o, nil
}

// rows returns the oracle's answer rows for the query, sorted.
func (o *oracle) rows(class int, qs string) ([]string, error) {
	q, err := parser.ParseQuery(qs)
	if err != nil {
		return nil, err
	}
	rel, err := eval.AnswerQuery(o.idb[class], q)
	if err != nil {
		return nil, err
	}
	syms := o.idb[class].Syms
	var rows []string
	rel.Each(func(t storage.Tuple) bool {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = syms.Name(v)
		}
		rows = append(rows, rowKey(row))
		return true
	})
	sort.Strings(rows)
	return rows, nil
}

// verify compares the rows an operation returned with the oracle's. A full
// answer must equal the oracle's set; a stream limited to streamLimit must be
// that many distinct oracle rows (all of them when the oracle has fewer).
func (o *oracle) verify(class int, op op, got []string) string {
	want, err := o.rows(class, op.text)
	if err != nil {
		return fmt.Sprintf("oracle %s: %v", op.text, err)
	}
	sort.Strings(got)
	if op.kind == opStream {
		n := len(want)
		if n > streamLimit {
			n = streamLimit
		}
		if len(got) != n {
			return fmt.Sprintf("%s: streamed %d rows, oracle has %d (limit %d)", op.text, len(got), len(want), streamLimit)
		}
		for i, g := range got {
			j := sort.SearchStrings(want, g)
			if j == len(want) || want[j] != g || i > 0 && got[i-1] == g {
				return fmt.Sprintf("%s: streamed row %q is not a distinct oracle answer", op.text, g)
			}
		}
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d rows, oracle has %d", op.text, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: row %q differs from oracle row %q", op.text, got[i], want[i])
		}
	}
	return ""
}
