// Command dlrun evaluates Datalog programs. The input holds rules, ground
// facts and queries; every query is answered with the chosen strategy.
//
// Usage:
//
//	dlrun [-strategy naive|seminaive|parallel|magic|state|class|auto]
//	      [-stats] [-trace] [-trace-json FILE] [-serve ADDR] [file]
//
// Example input:
//
//	p(X, Y) :- e(X, Y).
//	p(X, Y) :- e(X, Z), p(Z, Y).
//	e(a, b). e(b, c). e(c, d).
//	?- p(a, Y).
//
// The compiled strategies (magic, state, class, auto) require the program to
// be a single linear recursive system (one recursive rule plus exit rules);
// the bottom-up strategies (naive, seminaive, parallel) evaluate arbitrary
// Datalog: seminaive is the parallel engine's round driver on one worker, and
// naive is the independent full re-evaluation oracle. "auto" classifies the system per the paper's taxonomy and picks
// the fastest licensed plan (TC frontier kernel, bounded expansion union,
// stable parallel, or generic parallel), caching the compiled plan per
// (program, query form).
//
// Observability: -trace prints one line per fixpoint round for every
// strategy plus the final stats line (no -stats needed) and, for auto, the
// chosen plan and cache status. -trace-json writes the full hierarchical
// span tree (parse → classify → plan-compile → fixpoint → round → join) as
// JSON to FILE ("-" for stdout). -serve ADDR exposes /metrics (Prometheus
// text), /debug/vars (expvar) and /debug/pprof/ on ADDR and blocks after
// the queries so profiles can be captured.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

func main() {
	var (
		strategyName = flag.String("strategy", "class", "evaluation strategy: naive, seminaive, parallel, magic, state, class or auto")
		showStats    = flag.Bool("stats", false, "print evaluation statistics")
		factsPath    = flag.String("facts", "", "load additional ground facts from this file")
		interactive  = flag.Bool("i", false, "interactive mode: read clauses and queries from stdin")
		traceJSON    = flag.String("trace-json", "", "write the hierarchical span tree as JSON to this file (\"-\" for stdout)")
		serveAddr    = flag.String("serve", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address and block after the queries")
	)
	flag.BoolVar(&trace, "trace", false, "print one line per fixpoint round (every strategy) and the compiled plan (auto)")
	flag.Parse()

	strategy, err := parseStrategy(*strategyName)
	if err != nil {
		fatal(err)
	}
	if *serveAddr != "" {
		addr, err := obs.Listen(*serveAddr, obs.Default())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%% serving http://%s/metrics /debug/vars /debug/pprof/\n", addr)
	}
	if *traceJSON != "" {
		tracer = obs.New("dlrun")
	}
	db := storage.NewDatabase()
	if *factsPath != "" {
		f, err := os.Open(*factsPath)
		if err != nil {
			fatal(err)
		}
		err = db.ReadFacts(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *factsPath, err))
		}
	}

	if *interactive {
		repl(strategy, db, *showStats)
		writeTrace(*traceJSON)
		return
	}

	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	ps := tracer.Root().Child("parse")
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		ps.End()
		fatal(err)
	}
	ps.SetInt("rules", int64(len(prog.Rules))).SetInt("queries", int64(len(queries))).End()
	if len(queries) == 0 {
		fatal(fmt.Errorf("no query in input (write e.g. '?- p(a, Y).')"))
	}
	if err := loadFacts(db, prog); err != nil {
		fatal(err)
	}
	rulesOnly := &ast.Program{Rules: prog.Rules}
	for _, q := range queries {
		if err := runQuery(strategy, rulesOnly, q, db, *showStats); err != nil {
			fatal(err)
		}
	}
	writeTrace(*traceJSON)
	if *serveAddr != "" {
		// Keep the process alive so /metrics and /debug/pprof/ stay
		// scrapeable after the queries finish.
		select {}
	}
}

// writeTrace finishes the tracer and writes the span tree as JSON.
func writeTrace(path string) {
	if tracer == nil || path == "" {
		return
	}
	tracer.Finish()
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tracer.WriteJSON(w); err != nil {
		fatal(err)
	}
}

func loadFacts(db *storage.Database, prog *ast.Program) error {
	for _, f := range prog.Facts {
		names := make([]string, len(f.Args))
		for i, t := range f.Args {
			names[i] = t.Name
		}
		if _, err := db.Insert(f.Pred, names...); err != nil {
			return err
		}
	}
	return nil
}

func runQuery(strategy eval.Strategy, prog *ast.Program, q ast.Query, db *storage.Database, showStats bool) error {
	ans, st, err := answer(strategy, prog, q, db)
	if trace {
		for _, r := range st.Trace {
			fmt.Printf("%% %v\n", r)
		}
	}
	if err != nil {
		return fmt.Errorf("%v: %w", q, err)
	}
	if trace && st.Plan != nil {
		fmt.Printf("%% plan: %v\n", st.Plan)
	}
	fmt.Printf("%% %v  (%d answers)\n", q, ans.Len())
	lines := make([]string, 0, ans.Len())
	ans.Each(func(t storage.Tuple) bool {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = db.Syms.Name(v)
		}
		lines = append(lines, q.Atom.Pred+"("+strings.Join(parts, ", ")+").")
		return true
	})
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// -trace implies the summary line: the per-round lines are useless
	// without the totals they add up to.
	if showStats || trace {
		fmt.Printf("%% stats: %v gomaxprocs=%d\n", st, runtime.GOMAXPROCS(0))
	}
	return nil
}

// repl reads clauses interactively: rules and facts accumulate, every query
// is answered immediately against the current program and database.
func repl(strategy eval.Strategy, db *storage.Database, showStats bool) {
	prog := &ast.Program{}
	fmt.Println("% dlrun interactive — enter rules, facts and '?- query.' lines; Ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			fmt.Print("> ")
			continue
		}
		p, queries, err := parser.ParseProgram(line)
		if err != nil {
			fmt.Println("% error:", err)
			fmt.Print("> ")
			continue
		}
		if err := loadFacts(db, p); err != nil {
			fmt.Println("% error:", err)
			fmt.Print("> ")
			continue
		}
		for _, r := range p.Rules {
			prog.Rules = append(prog.Rules, r)
			fmt.Println("% rule added:", r)
		}
		for _, q := range queries {
			if err := runQuery(strategy, prog, q, db, showStats); err != nil {
				fmt.Println("% error:", err)
			}
		}
		fmt.Print("> ")
	}
	fmt.Println()
}

// trace enables per-round lines (Stats.Trace) for every strategy; tracer is
// non-nil when -trace-json collects the hierarchical span tree.
var (
	trace  bool
	tracer *obs.Tracer
)

// queryOpts builds the instrumentation options for one query: a per-query
// span subtree when -trace-json is set.
func queryOpts(q ast.Query) (eval.Opts, *obs.Span) {
	var opts eval.Opts
	var qs *obs.Span
	if tracer != nil {
		qs = tracer.Root().Child("query").SetStr("query", q.String())
		opts.Tracer = tracer
		opts.Parent = qs
	}
	return opts, qs
}

func answer(strategy eval.Strategy, prog *ast.Program, q ast.Query, db *storage.Database) (ans *storage.Relation, st eval.Stats, err error) {
	// The rewrite and plan layers report malformed systems as errors, but a
	// query must never crash the CLI even if a panic slips through below.
	defer func() {
		if r := recover(); r != nil {
			ans, err = nil, fmt.Errorf("internal error evaluating query: %v", r)
		}
	}()
	opts, qs := queryOpts(q)
	defer qs.End()
	switch strategy {
	case eval.StrategyNaive, eval.StrategySemiNaive, eval.StrategyParallel:
		run := map[eval.Strategy]func(*ast.Program, *storage.Database, eval.Opts) (*storage.Database, eval.Stats, error){
			eval.StrategyNaive:     eval.NaiveOpts,
			eval.StrategySemiNaive: eval.SemiNaiveOpts,
			eval.StrategyParallel:  eval.ParallelSemiNaiveOpts,
		}[strategy]
		out, st, err := run(prog, db, opts)
		if err != nil {
			return nil, st, err
		}
		ans, err := eval.AnswerQuery(out, q)
		return ans, st, err
	default:
		sys, err := ast.SystemOf(prog)
		if err != nil {
			return nil, eval.Stats{}, fmt.Errorf("strategy %v needs a single linear recursive system: %w", strategy, err)
		}
		return eval.AnswerOpts(strategy, sys, q, db, opts)
	}
}

func parseStrategy(name string) (eval.Strategy, error) {
	for _, s := range eval.Strategies() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want naive, seminaive, parallel, magic, state, class or auto)", name)
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlrun:", err)
	os.Exit(1)
}
