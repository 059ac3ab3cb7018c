package eval

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite the span-tree golden files")

// renderSpans renders a span tree as indented "name k=v ..." lines with the
// attributes sorted by key. Durations and start offsets are deliberately
// omitted — everything rendered is deterministic for a fixed program,
// database and worker count.
func renderSpans(s *obs.Span) string {
	var b strings.Builder
	var walk func(s *obs.Span, depth int)
	walk = func(s *obs.Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name())
		attrs := append([]obs.Attr(nil), s.Attrs()...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
		for _, a := range attrs {
			if a.IsInt {
				fmt.Fprintf(&b, " %s=%d", a.Key, a.Int)
			} else {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
			}
		}
		b.WriteByte('\n')
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}

// TestSpanTreeGolden pins the exact span tree (names and attributes, not
// timings) each engine emits for one fixed query. Run with -update to
// rewrite the goldens after an intentional instrumentation change.
func TestSpanTreeGolden(t *testing.T) {
	tcSys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	boundedSys := mustSystem(t, "p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).", "p(X, Y) :- e(X, Y).")
	q, err := parser.ParseQuery("?- p(n0, Y).")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func(t *testing.T, opts Opts)
	}{
		{"naive", func(t *testing.T, opts Opts) {
			if _, _, err := AnswerOpts(StrategyNaive, tcSys, q, chainDB(t, 4), opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"parallel", func(t *testing.T, opts Opts) {
			// One worker keeps task execution (and span attachment) in feed
			// order, so the tree is byte-for-byte reproducible.
			opts.workers = 1
			if _, _, err := AnswerOpts(StrategyParallel, tcSys, q, chainDB(t, 4), opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"auto_tc", func(t *testing.T, opts Opts) {
			if _, _, err := NewPlanner().AnswerOpts(tcSys, q, chainDB(t, 4), opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"auto_bounded", func(t *testing.T, opts Opts) {
			db := chainDB(t, 4)
			if err := storage.GenRandomRelation(db, "b", 1, 4, 3, 1); err != nil {
				t.Fatal(err)
			}
			if err := storage.GenRandomRelation(db, "c", 2, 4, 5, 2); err != nil {
				t.Fatal(err)
			}
			if _, _, err := NewPlanner().AnswerOpts(boundedSys, q, db, opts); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New("test")
			tc.run(t, Opts{Tracer: tr})
			tr.Finish()
			got := renderSpans(tr.Root())
			path := filepath.Join("testdata", "trace_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/eval -run TestSpanTreeGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Errorf("span tree mismatch (-want +got):\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestParallelSpanEmissionRace drives the parallel engine with many workers
// and a live tracer: workers attach join spans to the shared round span
// concurrently, which the race detector checks when the suite runs under
// -race (make race).
func TestParallelSpanEmissionRace(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, err := parser.ParseQuery("?- p(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := obs.New("race")
			db := chainDB(t, 40)
			if _, _, err := AnswerOpts(StrategyParallel, sys, q, db, Opts{Tracer: tr, workers: 8}); err != nil {
				t.Error(err)
				return
			}
			tr.Finish()
			fix := tr.Root().Find("fixpoint")
			if fix == nil || len(fix.Children()) == 0 {
				t.Error("parallel run emitted no round spans")
			}
		}()
	}
	wg.Wait()
}

// TestUntracedRoundSinkZeroAlloc pins the no-op-tracer cost of the per-rule
// span hooks that sit inside every fixpoint round.
func TestUntracedRoundSinkZeroAlloc(t *testing.T) {
	var st Stats
	sink := newRoundSink(&st, Opts{}, nil)
	if n := testing.AllocsPerRun(1000, func() {
		if sink.traced() {
			t.Fatal("nil fixpoint span reports traced")
		}
		rsp := sink.rule("never")
		rsp.SetInt("derived", 1).End()
	}); n != 0 {
		t.Errorf("untraced rule hook allocates %v per op, want 0", n)
	}
}

// TestMetricsRegistryPerEvaluation checks that one evaluation flushes the
// logical and storage counters into the Opts registry exactly once.
func TestMetricsRegistryPerEvaluation(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	q, err := parser.ParseQuery("?- p(n0, Y).")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, st, err := AnswerOpts(StrategySemiNaive, sys, q, chainDB(t, 5), Opts{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dl_evaluations_total").Value(); got != 1 {
		t.Errorf("evaluations = %d, want 1", got)
	}
	if got := reg.Counter("dl_rounds_total").Value(); got != int64(st.Rounds) {
		t.Errorf("rounds counter = %d, want %d", got, st.Rounds)
	}
	if got := reg.Counter("dl_tuples_derived_total").Value(); got != int64(st.Derived) {
		t.Errorf("derived counter = %d, want %d", got, st.Derived)
	}
	if got := reg.Counter("dl_dedup_probes_total").Value(); got <= 0 {
		t.Errorf("dedup probes = %d, want > 0", got)
	}
	if got := reg.Counter("dl_arena_bytes_total").Value(); got <= 0 {
		t.Errorf("arena bytes = %d, want > 0", got)
	}
	if got := reg.Histogram("dl_round_duration_seconds", nil).Count(); got != int64(st.Rounds) {
		t.Errorf("round duration observations = %d, want %d", got, st.Rounds)
	}
}
