package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dlgen"
	"repro/internal/eval"
	"repro/internal/paper"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rewrite"
)

// classify_corpus: the paper's own pipeline as library calls, one goroutine,
// no database. Per formula: source text -> parser.ParseProgram ->
// classify.Classify -> eval.CompilePlanOpts (which rewrites bounded and
// transformable classes) -> core.AnalyzeSystem(sys).PlanFor(q).

const (
	corpusRandom   = 4000 // seeded dlgen.RandomSystem formulas per repetition
	corpusMaxArity = 5
	corpusDomain   = 16 // constants a seeded query may bind
	// corpusOversample systems are drawn for each one kept (see buildCorpus).
	corpusOversample = 3
)

// formula is one corpus entry: what the pipeline is given and, for the
// paper's statements, the class it must come out as.
type formula struct {
	id        string
	src       string
	query     ast.Query
	wantClass string // "" for a generated formula
}

// buildCorpus renders the 13 paper statements and n seeded random systems as
// source text, each with a seeded query.
func buildCorpus(seed int64, n int) []formula {
	rng := rand.New(rand.NewSource(seed*15485863 + 7))
	render := func(sys *ast.RecursiveSystem) string {
		var b strings.Builder
		for _, r := range sys.Program().Rules {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	var out []formula
	for _, s := range paper.All() {
		sys := s.System()
		out = append(out, formula{s.ID, render(sys), dlgen.RandomQuery(rng, sys, corpusDomain), s.WantClass})
	}
	// Systematic sample: draw corpusOversample times as many systems, order
	// them by what their text says about their cost (arity, body literals,
	// then the text itself) and keep every corpusOversample-th. Every seed's
	// corpus then has the same make-up, and the pipeline's mean cost per
	// formula moves by well under 1% from seed to seed instead of 2%.
	cfg := dlgen.Config{MaxArity: corpusMaxArity}
	type candidate struct {
		sys *ast.RecursiveSystem
		src string
	}
	cands := make([]candidate, n*corpusOversample)
	for i := range cands {
		sys := dlgen.RandomSystem(rng, cfg)
		cands[i] = candidate{sys, render(sys)}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.sys.Arity() != b.sys.Arity() {
			return a.sys.Arity() < b.sys.Arity()
		}
		if la, lb := len(a.sys.Recursive.Body), len(b.sys.Recursive.Body); la != lb {
			return la < lb
		}
		return a.src < b.src
	})
	for _, i := range rng.Perm(n) {
		c := cands[i*corpusOversample+corpusOversample/2]
		out = append(out, formula{fmt.Sprintf("r%d", i), c.src, dlgen.RandomQuery(rng, c.sys, corpusDomain), ""})
	}
	return out
}

// compiled is what one formula's pipeline produced; a repetition keeps them
// all so that live_heap_mb is what the compiled artifacts hold.
type compiled struct {
	class string
	plan  *eval.Plan
	sym   *plan.Formula
}

// compile runs the pipeline on one formula. With a recorder, every step gets
// a span under parent.
func compile(f *formula, rec *recorder, parent, opID int) (compiled, error) {
	step := func(name string) func() {
		if rec == nil {
			return func() {}
		}
		id := rec.begin(name, parent, opID, "")
		return func() { rec.end(id) }
	}
	done := step("parser.parse_program")
	prog, _, err := parser.ParseProgram(f.src)
	done()
	if err != nil {
		return compiled{}, err
	}
	sys, err := systemOf(prog)
	if err != nil {
		return compiled{}, err
	}
	done = step("classify.classify")
	res, err := classify.Classify(sys.Recursive)
	done()
	if err != nil {
		return compiled{}, err
	}
	if rewrites := res.Bounded || res.Transformable && !res.Stable; rec != nil && rewrites {
		// The rewrite CompilePlanOpts is about to do, on its own: the traced
		// run pays it twice to see it once.
		done = step("rewrite.expand")
		if res.Bounded {
			_, err = rewrite.NonRecursiveExpansions(sys, res.RankBound)
		} else {
			_, err = rewrite.ToStableClassified(sys, res)
		}
		done()
		if err != nil {
			return compiled{}, err
		}
	}
	done = step("eval.plan.compile")
	p, err := eval.CompilePlanOpts(sys, eval.Opts{})
	done()
	if err != nil {
		return compiled{}, err
	}
	done = step("core.analyze")
	c, err := core.AnalyzeSystem(sys)
	done()
	if err != nil {
		return compiled{}, err
	}
	done = step("plan.symbolic")
	sym, err := c.PlanFor(f.query)
	done()
	if err != nil {
		return compiled{}, err
	}
	out := compiled{class: res.Class.Code(), plan: p, sym: sym}
	switch {
	case f.wantClass != "" && out.class != f.wantClass:
		err = fmt.Errorf("classified %s, the paper records %s", out.class, f.wantClass)
	case p.Class != out.class || c.Result.Class.Code() != out.class:
		err = fmt.Errorf("classified %s but compiled as %s and analysed as %s", out.class, p.Class, c.Result.Class.Code())
	}
	return out, err
}

// corpusRep runs one untraced repetition: build the corpus (the set-up), then
// compile every formula, timing each.
func (h *harness) corpusRep(n int) (map[string]float64, float64) {
	t0 := time.Now()
	corpus := buildCorpus(h.cfg.seed, n)
	setupS := time.Since(t0).Seconds()

	kept := make([]compiled, 0, len(corpus))
	lat := make([]float64, 0, len(corpus))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := range corpus {
		t := time.Now()
		c, err := compile(&corpus[i], nil, -1, i)
		lat = append(lat, float64(time.Since(t))/1e3)
		msg := ""
		if err != nil {
			msg = fmt.Sprintf("%s: %v", corpus[i].id, err)
		}
		h.count(1, msg)
		kept = append(kept, c)
	}
	wallS := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)

	heapMB := heldMB(func() { kept = nil })
	ops := float64(len(corpus))
	return map[string]float64{
		"setup_s":       setupS,
		"op_p50_us":     median(lat),
		"ops_per_s":     ops / wallS,
		"allocs_per_op": float64(m1.Mallocs-m0.Mallocs) / ops,
		"bytes_per_op":  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		"live_heap_mb":  heapMB,
	}, wallS
}

// runCorpus measures classify_corpus untraced.
func (h *harness) runCorpus() (*runResult, error) {
	start := time.Now()
	n := h.scaled(corpusRandom)
	res := &runResult{Workload: "classify_corpus", Clients: 1, OpsPerRep: n + len(paper.All()),
		Metrics: map[string]metric{}, RepValues: map[string][]float64{}}
	for timed := 0.0; res.Reps < h.cfg.minReps || timed < h.cfg.seconds; res.Reps++ {
		vals, wallS := h.corpusRep(n)
		timed += wallS
		for name, v := range vals {
			res.RepValues[name] = append(res.RepValues[name], v)
		}
	}
	res.aggregate()
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// runCorpusTraced measures classify_corpus's per-layer metrics: the same
// formulas, a quarter of them, with a span around every pipeline step.
func (h *harness) runCorpusTraced(rec *recorder) (*runResult, error) {
	start := time.Now()
	n := h.scaled(corpusRandom / tracedDivisor)
	corpus := buildCorpus(h.cfg.seed, n)
	res := &runResult{Workload: "classify_corpus", Trace: true, Clients: 1, OpsPerRep: len(corpus), Metrics: map[string]metric{}}

	// Every traced pass is paired with an untraced one, for the tracing
	// overhead: each pass's throughput, then the medians' ratio.
	var untraced, traced []float64
	ops := 0
	for res.Reps == 0 || time.Since(start).Seconds() < h.cfg.seconds {
		t0 := time.Now()
		for i := range corpus {
			if _, err := compile(&corpus[i], nil, -1, i); err != nil {
				return nil, fmt.Errorf("%s: %w", corpus[i].id, err)
			}
		}
		untraced = append(untraced, float64(len(corpus))/time.Since(t0).Seconds())

		first := len(rec.spans)
		for i := range corpus {
			id := rec.begin("op", -1, ops, "")
			_, err := compile(&corpus[i], rec, id, ops)
			rec.end(id)
			msg := ""
			if err != nil {
				msg = fmt.Sprintf("%s: %v", corpus[i].id, err)
			}
			h.count(1, msg)
			ops++
		}
		// The pipeline less the rewrite it runs twice when traced.
		pathNS := int64(0)
		for _, s := range rec.spans[first:] {
			switch s.Name {
			case "op":
				pathNS += s.EndNS - s.StartNS
			case "rewrite.expand":
				pathNS -= s.EndNS - s.StartNS
			}
		}
		traced = append(traced, float64(len(corpus))/(float64(pathNS)/1e9))
		res.Reps++
	}

	m := map[string]float64{}
	for _, name := range []string{"parser.parse_program", "classify.classify", "rewrite.expand", "plan.symbolic", "eval.plan.compile"} {
		m[name+"_us"] = median(rec.durations(name, ""))
	}
	m["bench.trace_overhead_share"] = ratio(median(traced)-median(untraced), median(untraced))
	m["bench.client_self_us"] = median(rec.selfOf("op"))
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}
