// Package core is the library facade: it ties the paper's pipeline together
// — parse a linear recursive system, build its I-graph, classify it, derive
// the compiled formula and query evaluation plan for a query form, and
// answer queries over an extensional database with the class-appropriate
// engine.
//
// Typical use:
//
//	c, err := core.Parse(`
//	    p(X, Y) :- a(X, Z), p(Z, Y).
//	    p(X, Y) :- e(X, Y).
//	`)
//	q, _ := parser.ParseQuery("?- p(n0, Y).")
//	ans, stats, err := c.Answer(q, db)
package core

import (
	"fmt"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/eval"
	"repro/internal/igraph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Compilation is an analyzed linear recursive system: the validated rules,
// the I-graph and the classification. It is immutable after construction
// and safe for concurrent readers.
type Compilation struct {
	Sys    *ast.RecursiveSystem
	IGraph *igraph.IGraph
	Result *classify.Result
}

// Analyze validates and classifies a recursive rule with its exit rules.
func Analyze(recursive ast.Rule, exits ...ast.Rule) (*Compilation, error) {
	sys, err := ast.NewRecursiveSystem(recursive, exits...)
	if err != nil {
		return nil, err
	}
	return AnalyzeSystem(sys)
}

// AnalyzeSystem analyzes an already-assembled system.
func AnalyzeSystem(sys *ast.RecursiveSystem) (*Compilation, error) {
	ig, err := igraph.Build(sys.Recursive)
	if err != nil {
		return nil, err
	}
	return &Compilation{Sys: sys, IGraph: ig, Result: classify.ClassifyIGraph(ig)}, nil
}

// Parse reads a program text containing exactly one linear recursive rule
// and its exit rules (every other rule whose head is the same predicate and
// whose body does not mention it) and analyzes it. Ground facts in the text
// are rejected — facts belong in the database.
func Parse(src string) (*Compilation, error) {
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(queries) > 0 {
		return nil, fmt.Errorf("core: unexpected query %v in system text", queries[0])
	}
	if len(prog.Facts) > 0 {
		return nil, fmt.Errorf("core: unexpected fact %v in system text (facts belong in the database)", prog.Facts[0])
	}
	sys, err := ast.SystemOf(prog)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(sys.Exits) == 0 {
		return nil, fmt.Errorf("core: recursive rule %v has no exit rule", sys.Recursive)
	}
	return AnalyzeSystem(sys)
}

// MustParse is Parse that panics on error; for fixtures and examples.
func MustParse(src string) *Compilation {
	c, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Class returns the paper's class of the formula.
func (c *Compilation) Class() classify.Class { return c.Result.Class }

// PlanFor compiles the query evaluation plan for the query's adornment.
func (c *Compilation) PlanFor(q ast.Query) (*plan.Formula, error) {
	if q.Atom.Pred != c.Sys.Pred() || q.Atom.Arity() != c.Sys.Arity() {
		return nil, fmt.Errorf("core: query %v does not match %s/%d", q, c.Sys.Pred(), c.Sys.Arity())
	}
	return plan.Compile(c.Sys, adorn.FromQuery(q), 0)
}

// Answer evaluates the query with the class-appropriate compiled engine
// (eval.StrategyClass).
func (c *Compilation) Answer(q ast.Query, db *storage.Database) (*storage.Relation, eval.Stats, error) {
	return eval.ClassEvalWithOpts(c.Sys, c.Result, q, db, eval.Opts{})
}

// AnswerWith evaluates the query with an explicit strategy.
func (c *Compilation) AnswerWith(s eval.Strategy, q ast.Query, db *storage.Database) (*storage.Relation, eval.Stats, error) {
	return eval.Answer(s, c.Sys, q, db)
}

// ToStable returns the equivalent stable system per Theorems 2 and 4, or an
// error for non-transformable classes.
func (c *Compilation) ToStable() (*Compilation, error) {
	sys, err := rewrite.ToStableClassified(c.Sys, c.Result)
	if err != nil {
		return nil, err
	}
	return AnalyzeSystem(sys)
}

// NonRecursive returns the equivalent finite rule set for bounded formulas.
func (c *Compilation) NonRecursive() ([]ast.Rule, error) {
	if !c.Result.Bounded {
		return nil, fmt.Errorf("core: class %s is not bounded", c.Result.Class.Code())
	}
	return rewrite.NonRecursiveExpansions(c.Sys, c.Result.RankBound)
}

// ResolutionGraph returns the k-th resolution graph of the recursive rule.
func (c *Compilation) ResolutionGraph(k int) *igraph.Resolution {
	r := igraph.NewResolution(c.IGraph)
	r.Expand(k)
	return r
}

// Explain renders a full analysis report: the rules, the I-graph, the
// classification and the derived properties.
func (c *Compilation) Explain() string {
	var b strings.Builder
	b.WriteString("recursive rule:\n  ")
	b.WriteString(c.Sys.Recursive.String())
	b.WriteString("\nexit rules:\n")
	for _, e := range c.Sys.Exits {
		b.WriteString("  " + e.String() + "\n")
	}
	b.WriteString("I-graph:\n")
	for _, line := range strings.Split(strings.TrimRight(c.IGraph.String(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	b.WriteString(c.Result.Explain())
	return b.String()
}

// ExplainQuery renders the plan report for a query form.
func (c *Compilation) ExplainQuery(q ast.Query) (string, error) {
	f, err := c.PlanFor(q)
	if err != nil {
		return "", err
	}
	return f.String(), nil
}
