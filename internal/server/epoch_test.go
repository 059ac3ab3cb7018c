package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

// epochFixture is a fixpoint-plan program for the epoch oracle: its rules,
// the strategy its plan must report, a random bound query and a random
// write batch.
type epochFixture struct {
	name, src, strategy string
	query               func(r *rand.Rand) string
	batch               func(r *rand.Rand) string
}

func epochFixtures() []epochFixture {
	c := func(r *rand.Rand, n int) string { return fmt.Sprintf("n%d", r.Intn(n)) }
	return []epochFixture{
		{
			name: "stable",
			src: "p(X, Y) :- a(X, V), b(Y, U), p(U, V).\np(X, Y) :- e(X, Y).\n" +
				"a(n0, n1). b(n1, n2). e(n2, n1). e(n1, n0).\n",
			strategy: "stable-parallel",
			query:    func(r *rand.Rand) string { return fmt.Sprintf("?- p(%s, Y).", c(r, 10)) },
			batch: func(r *rand.Rand) string {
				return fmt.Sprintf("a(%s, %s). b(%s, %s). e(%s, %s).", c(r, 10), c(r, 10), c(r, 10), c(r, 10), c(r, 10), c(r, 10))
			},
		},
		{
			name:     "generic",
			src:      "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), t(Z, Y).\ne(n0, n1). e(n1, n2).\n",
			strategy: "generic-parallel",
			query:    func(r *rand.Rand) string { return fmt.Sprintf("?- t(%s, Y).", c(r, 12)) },
			batch:    func(r *rand.Rand) string { return fmt.Sprintf("e(%s, %s).", c(r, 12), c(r, 12)) },
		},
		{
			name: "negation",
			src: "reach(X, Y) :- e(X, Y).\nreach(X, Y) :- reach(X, Z), e(Z, Y).\n" +
				"node(X) :- e(X, Y).\nnode(Y) :- e(X, Y).\n" +
				"unreach(X, Y) :- node(X), node(Y), not reach(X, Y).\ne(n0, n1).\n",
			strategy: "generic-parallel",
			query:    func(r *rand.Rand) string { return fmt.Sprintf("?- unreach(%s, Y).", c(r, 10)) },
			batch:    func(r *rand.Rand) string { return fmt.Sprintf("e(%s, %s).", c(r, 10), c(r, 10)) },
		},
	}
}

// epochResponse is one successful read: what was asked and what came back.
type epochResponse struct {
	query string
	limit int
	res   QueryResult
}

// TestServerEpochOracle: readers issue cold bound JSON queries, with and
// without a limit, against stable, generic and stratified-negation programs
// while a writer loads fact batches (run under -race by `make race`). Every
// write's epoch and batch are recorded; afterwards every successful response
// must equal NaiveOpts over the facts loaded up to the epoch it reports — a
// limited one a subset of that size — whether it was computed cold, selected
// from the program's view, carried by maintenance or served as a hit.
func TestServerEpochOracle(t *testing.T) {
	const writes, readers, perWrite = 40, 2, 4
	for i, f := range epochFixtures() {
		t.Run(f.name, func(t *testing.T) {
			s, ts := newTestServer(t, f.src)
			// batches[k] is the k-th loaded batch; upTo maps an epoch to the
			// number of batches its snapshot holds.
			var batches []string
			upTo := map[uint64]int{s.Snapshot().Epoch(): 0}
			// served counts the reads answered, written the writes published;
			// readers run at most two writes' worth of reads ahead.
			var served, written atomic.Int64
			var out [readers][]epochResponse
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100*i + r)))
					for k := 0; ; k++ {
						for served.Load() >= (written.Load()+2)*perWrite {
							select {
							case <-stop:
								return
							case <-time.After(100 * time.Microsecond):
							}
						}
						select {
						case <-stop:
							return
						default:
						}
						q, limit := f.query(rng), 0
						if k%3 == 2 {
							limit = 1 + rng.Intn(3)
						}
						res, err := askEpoch(ts, q, limit)
						served.Add(1)
						if err != nil {
							t.Error(err)
							continue
						}
						out[r] = append(out[r], epochResponse{q, limit, res})
					}
				}(r)
			}
			rng := rand.New(rand.NewSource(int64(i)))
			for w := 0; w < writes; w++ {
				waitServed(&served, int64(perWrite*(w+1)))
				b := f.batch(rng)
				batches = append(batches, b)
				ep, err := s.LoadFacts(b)
				if err != nil {
					t.Fatal(err)
				}
				if _, seen := upTo[ep]; !seen {
					upTo[ep] = w + 1
				}
				written.Add(1)
			}
			waitServed(&served, (writes+1)*perWrite) // reads at the last epoch
			close(stop)
			wg.Wait()

			prog, _, err := parser.ParseProgram(f.src)
			if err != nil {
				t.Fatal(err)
			}
			models := make(map[int]*storage.Database)
			oracle := func(q string, epoch uint64) []string {
				n, ok := upTo[epoch]
				if !ok {
					t.Fatalf("%s answered at epoch %d, which no write published", q, epoch)
				}
				if models[n] == nil {
					models[n] = naiveModel(t, prog, batches[:n])
				}
				return modelRows(t, models[n], q)
			}
			checked := 0
			for _, rs := range out {
				for _, r := range rs {
					want, got := oracle(r.query, r.res.Epoch), sortedRows(r.res.Answers)
					if r.res.Strategy != f.strategy {
						t.Errorf("%s: strategy %q, want %q", r.query, r.res.Strategy, f.strategy)
					}
					if r.limit == 0 {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s at epoch %d (cached=%v maintained=%v): %v, naive %v",
								r.query, r.res.Epoch, r.res.Cached, r.res.Maintained, got, want)
						}
						checked++
						continue
					}
					// At exactly limit answers either truncation report is right.
					if len(got) != min(r.limit, len(want)) || !subset(got, want) ||
						r.res.Truncated && len(want) < r.limit || !r.res.Truncated && len(want) > r.limit {
						t.Errorf("%s limit %d at epoch %d: %v (truncated=%v), naive %v",
							r.query, r.limit, r.res.Epoch, got, r.res.Truncated, want)
					}
					checked++
				}
			}
			if checked < writes*perWrite || len(upTo) < writes/2 {
				t.Errorf("%d responses over %d epochs: the run proves little", checked, len(upTo))
			}
		})
	}
}

// waitServed blocks until the readers have answered n requests.
func waitServed(served *atomic.Int64, n int64) {
	for served.Load() < n {
		time.Sleep(100 * time.Microsecond)
	}
}

// askEpoch is one GET /query; limit 0 asks for every answer.
func askEpoch(ts *httptest.Server, q string, limit int) (QueryResult, error) {
	u := ts.URL + "/query?q=" + url.QueryEscape(q)
	if limit > 0 {
		u += fmt.Sprintf("&limit=%d", limit)
	}
	var res QueryResult
	resp, err := http.Get(u)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return res, json.NewDecoder(resp.Body).Decode(&res)
}

// naiveModel evaluates the program by NaiveOpts over its own facts plus the
// given batches, loaded the way the server loads them.
func naiveModel(t *testing.T, prog *ast.Program, batches []string) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	for _, f := range prog.Facts {
		names := make([]string, len(f.Args))
		for i, a := range f.Args {
			names[i] = a.Name
		}
		if _, err := db.Insert(f.Pred, names...); err != nil {
			t.Fatal(err)
		}
	}
	facts, err := storage.ScanFacts(strings.Join(batches, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if _, err := db.Insert(f.Pred, f.Args...); err != nil {
			t.Fatal(err)
		}
	}
	out, _, err := eval.NaiveOpts(&ast.Program{Rules: prog.Rules}, db, eval.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// modelRows selects q's answers from an evaluated model, sorted.
func modelRows(t *testing.T, model *storage.Database, q string) []string {
	t.Helper()
	pq, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eval.AnswerQuery(model, pq)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, tp := range ans.Tuples() {
		row := make([]string, len(tp))
		for i, v := range tp {
			row[i] = model.Syms.Name(v)
		}
		rows = append(rows, row)
	}
	return sortedRows(rows)
}

// subset reports whether every row of a is a row of b (both sorted).
func subset(a, b []string) bool {
	in := make(map[string]bool, len(b))
	for _, r := range b {
		in[r] = true
	}
	for _, r := range a {
		if !in[r] {
			return false
		}
	}
	return true
}
