package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// tinyRuns runs every workload, untraced and traced, once at a tiny scale on
// one shared harness.
var tinyRuns = sync.OnceValues(func() (map[string]*runResult, error) {
	h, err := newHarness(config{seed: 7, seconds: 0, scale: 16, minReps: 1})
	if err != nil {
		return nil, err
	}
	defer h.close()
	out := map[string]*runResult{}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := h.run(name, trace, newRecorder())
			if err != nil {
				return nil, err
			}
			key := name + "/untraced"
			if trace {
				key = name + "/traced"
			}
			out[key] = res
		}
	}
	return out, nil
})

func TestWorkloadsTinyScale(t *testing.T) {
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	for key, res := range runs {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", key, res.Attempted, res.Failed, res.Failures)
		}
	}
	// Counts a one-client traced run must reproduce exactly.
	cold := runs["serve_cold/traced"].Metrics
	for _, c := range classNames {
		if cold["eval.fixpoint."+c+".derived_per_op"].Value <= 0 {
			t.Errorf("serve_cold: %s derived nothing", c)
		}
	}
	if runs["serve_mixed/traced"].Metrics["eval.maintain.maintained_share"].Value != 1 {
		t.Errorf("serve_mixed: not every cached entry was maintained: %v",
			runs["serve_mixed/traced"].Metrics["eval.maintain.maintained_share"])
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestOutputSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", names, workloadNames)
	}

	e2e := map[string]bool{}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bj.EndToEnd {
		e2e[m.Name] = true
		if i < len(endToEndMetrics) {
			if d := endToEndMetrics[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better || d.bound != m.Bound {
				t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
			}
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the naming or bound rules", m)
		}
	}
	layer := map[string]bool{}
	if len(bj.PerLayer) != len(perLayerMetrics) || len(bj.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, harness %d (limit 128)", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if layer[m.Name] || e2e[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		layer[m.Name] = true
		if i < len(perLayerMetrics) {
			if d := perLayerMetrics[i]; d.name != m.Name || d.unit != m.Unit {
				t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
			}
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %+v breaks the naming rules", m)
		}
	}

	// Every run reports exactly its mode's metrics, each with its unit.
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	for key, res := range runs {
		want := e2e
		if res.Trace {
			want = layer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s reports %d metrics, BENCHMARK.json lists %d", key, len(res.Metrics), len(want))
		}
		for name, m := range res.Metrics {
			if !want[name] || m.Unit == "" {
				t.Errorf("%s reports %s (unit %q), which BENCHMARK.json does not list for this mode", key, name, m.Unit)
			}
		}
		if !res.Trace {
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", key, name, m.Value)
				}
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	render := func(seed int64) string {
		h := &harness{cfg: config{seed: seed, scale: 1}, fxs: buildFixtures(seed, writeFacts)}
		var b strings.Builder
		for _, fx := range h.fxs {
			b.WriteString(fx.facts)
			for _, part := range [][]string{fx.hot, fx.cold, fx.stream, fx.writes} {
				b.WriteString(strings.Join(part, "\n"))
			}
		}
		for _, w := range servedWorkloads {
			for c := 0; c < w.clients; c++ {
				for _, o := range w.ops(h, c, 1) {
					b.WriteString(o.path)
					b.WriteString(o.text)
				}
			}
		}
		for _, f := range buildCorpus(seed, 50) {
			b.WriteString(f.src)
			b.WriteString(f.query.String())
		}
		return b.String()
	}
	a, b, c := render(3), render(3), render(4)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated the same inputs")
	}
	for _, fx := range buildFixtures(3, writeFacts) {
		if len(fx.hot) != hotQueries || len(fx.cold) != coldQueries || len(fx.stream) == 0 || len(fx.writes) != writeFacts {
			t.Errorf("%s: %d hot, %d cold, %d streamed queries, %d writes", fx.class, len(fx.hot), len(fx.cold), len(fx.stream), len(fx.writes))
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},   // root
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 40},    // child
		{ID: 2, Parent: 0, StartNS: 30, EndNS: 60},    // overlaps child 1 by 10
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120},   // runs past the root: clipped to 10
		{ID: 4, Parent: 1, StartNS: 15, EndNS: 20},    // grandchild: only child 1 loses it
		{ID: 5, Parent: -1, StartNS: 200, EndNS: 250}, // childless root
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); got != (8.25-2.75)/5.5 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := geomean([]float64{1, 100}); got < 9.999 || got > 10.001 {
		t.Errorf("geomean(1, 100) = %v", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 99); got != 5 {
		t.Errorf("p99 of five values = %v", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50 float64, reps []float64, visited float64) *resultFile {
		e2e := &runResult{Workload: "serve_cold", Clients: 1, Metrics: map[string]metric{}, RepValues: map[string][]float64{}}
		for _, d := range endToEndMetrics {
			e2e.Metrics[d.name] = metric{100, d.unit}
			e2e.RepValues[d.name] = []float64{100, 100, 100, 100}
		}
		e2e.Metrics["op_p50_us"] = metric{p50, "us"}
		e2e.RepValues["op_p50_us"] = reps
		layers := &runResult{Workload: "serve_cold", Trace: true, Clients: 1, Metrics: map[string]metric{
			"eval.fixpoint.tc_frontier.visited_per_op": {visited, "count"},
		}}
		return &resultFile{Results: []*runResult{e2e, layers}}
	}
	steady := []float64{100, 100, 101, 99}
	base := mk(100, steady, 42)
	for _, tc := range []struct {
		name string
		b    *resultFile
		code int
		want string
	}{
		{"same", mk(104, steady, 42), 0, "no breach"},
		{"slower", mk(130, steady, 42), 1, "BREACH"},
		{"noisy", mk(130, []float64{60, 100, 140, 180}, 42), 0, "unresolved"},
		{"count moved", mk(100, steady, 43), 1, "must repeat exactly"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, base, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
