package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

// An NDJSON response is flushed only when the row source has no row ready
// and once after the done line: a cached answer leaves in at most two
// writes, while a derived answer reaches the client row by row before the
// server waits on its producer.

// flushRecorder counts flushes and hands the body written so far to
// onFlush, on the writing goroutine.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
	onFlush func(body string)
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
	if f.onFlush != nil {
		f.onFlush(f.Body.String())
	}
}

// TestServerNDJSONCachedFlushes: a stream served from the result cache is
// written in at most two flushes, and carries every row.
func TestServerNDJSONCachedFlushes(t *testing.T) {
	s, err := New(tcProgram, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), "?- p(a, Y).", nil); err != nil {
		t.Fatal(err)
	}
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/query?stream=1&q="+strings.ReplaceAll("?- p(a, Y).", " ", "%20"), nil))
	body := rec.Body.String()
	if !strings.Contains(body, `"cached":true`) || strings.Count(body, `{"row":`) != 3 || !strings.Contains(body, `"done":true`) {
		t.Fatalf("cached stream body:\n%s", body)
	}
	if rec.flushes > 2 {
		t.Errorf("cached stream flushed %d times, want at most 2", rec.flushes)
	}
}

// stepIterator is a row source whose producer the test drives: Next waits
// for the test to hand it a tuple, and no row is ever ready in advance.
type stepIterator struct {
	ch  chan storage.Tuple
	cur storage.Tuple
}

func (it *stepIterator) Next() bool {
	t, ok := <-it.ch
	it.cur = t
	return ok
}
func (it *stepIterator) Ready() bool          { return len(it.ch) > 0 }
func (it *stepIterator) Tuple() storage.Tuple { return it.cur }
func (it *stepIterator) Err() error           { return nil }
func (it *stepIterator) Stats() eval.Stats    { return eval.Stats{} }
func (it *stepIterator) Close()               {}

// TestServerNDJSONFlushesBeforeWaiting: while the producer holds its next
// row back, the client already holds every row delivered so far.
func TestServerNDJSONFlushesBeforeWaiting(t *testing.T) {
	s, err := New(tcProgram, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("?- p(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	snap := s.snap.Load()
	rows := []string{"b", "c", "d"}
	var tuples []storage.Tuple
	for _, y := range rows {
		a, _ := snap.Syms().Lookup("a")
		v, _ := snap.Syms().Lookup(y)
		tuples = append(tuples, storage.Tuple{a, v})
	}
	it := &stepIterator{ch: make(chan storage.Tuple)}
	a := answer{it: it, q: q, query: q.String(), snap: snap, streamed: true, t0: time.Now()}
	flushed := make(chan string, 8)
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), onFlush: func(body string) { flushed <- body }}
	rq := &request{w: rec, r: httptest.NewRequest("GET", "/query?stream=1", nil), id: "t"}
	done := make(chan error, 1)
	go func() {
		_, err := s.writeNDJSON(rq, &a, queryRequest{Query: q.String(), Stream: true}, nil)
		done <- err
	}()
	next := func(what string) string {
		select {
		case body := <-flushed:
			return body
		case <-time.After(5 * time.Second):
			t.Fatalf("no flush while the producer waits: %s never reached the client", what)
			return ""
		}
	}
	if body := next("the header"); !strings.Contains(body, `"query"`) {
		t.Fatalf("first flush %q, want the header", body)
	}
	for i, tp := range tuples {
		it.ch <- tp
		if body := next("row " + rows[i]); strings.Count(body, `{"row":`) != i+1 || !strings.Contains(body, `"`+rows[i]+`"]}`) {
			t.Fatalf("flush after row %d:\n%s", i+1, body)
		}
	}
	close(it.ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if body := next("the done line"); !strings.Contains(body, `"done":true`) || !strings.Contains(body, `"count":3`) {
		t.Fatalf("final flush:\n%s", body)
	}
}
