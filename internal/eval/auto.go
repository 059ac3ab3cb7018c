package eval

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// The classification-driven compiler layer. CompilePlanOpts classifies a
// recursive system once and fixes the evaluation strategy the paper's
// analysis licenses, materializing the database-independent rewriting
// artifacts (the bounded expansion union, the stabilized system) so that
// Plan.Answer only does per-database work. Plans are immutable after
// compilation and safe for concurrent Answer calls on distinct databases;
// the Planner in plancache.go caches them per (program, adornment).

// PlanKind names the compiled fast path chosen for a system.
type PlanKind uint8

const (
	// PlanTC runs the frontier-BFS transitive-closure kernel (tc.go).
	PlanTC PlanKind = iota
	// PlanBounded evaluates the finite non-recursive expansion union in a
	// single stratified pass (§5; no fixpoint).
	PlanBounded
	// PlanStable runs the parallel semi-naive engine on the Theorem-2/4
	// stabilized system.
	PlanStable
	// PlanGeneric runs the parallel semi-naive engine on the original
	// system (classes C, E, F: the paper gives no closed plan).
	PlanGeneric
)

// String names the fast path for traces and the class→strategy table.
func (k PlanKind) String() string {
	switch k {
	case PlanTC:
		return "tc-frontier"
	case PlanBounded:
		return "bounded-union"
	case PlanStable:
		return "stable-parallel"
	case PlanGeneric:
		return "generic-parallel"
	}
	return fmt.Sprintf("PlanKind(%d)", uint8(k))
}

// Plan is a compiled evaluation plan for one recursive system: the
// classification outcome plus the database-independent artifacts of the
// chosen fast path.
type Plan struct {
	// Class is the paper's classification code (A1–A5, B, C, D, E, F).
	Class string
	// Kind is the chosen fast path.
	Kind PlanKind

	sys    *ast.RecursiveSystem // original system (PlanTC, PlanGeneric)
	tc     *tcShape             // PlanTC
	rank   int                  // PlanBounded
	rules  []ast.Rule           // PlanBounded: exit + substituted expansions
	stable *ast.RecursiveSystem // PlanStable: the stabilized system

	// book holds the cost-based join orders compiled from the plan
	// database's column statistics (cost.go); nil when the plan was
	// compiled without a database (CompilePlanOpts) or for the
	// TC kernel, which never enumerates conjunctions. The planner's cache
	// key includes the database's statistics epoch, so a book can never
	// outlive the statistics it was computed from.
	book *orderBook
}

// CompilePlanOpts classifies the system and compiles the class-appropriate
// plan. Selection order: the transitive-closure shape (its kernel beats
// every generic engine on its workload), then boundedness (recursion
// elimination), then transformability (stabilize, then parallel
// semi-naive), then the generic parallel engine. The classification is
// recorded under a "classify" span (class code, rank when bounded) and the
// strategy selection plus rewriting under a "plan-compile" span (kind).
func CompilePlanOpts(sys *ast.RecursiveSystem, opts Opts) (*Plan, error) {
	return CompilePlanDB(sys, nil, nil, opts)
}

// CompilePlanDB is CompilePlanOpts additionally compiling the plan's
// cost-based join orders from db's column statistics (a nil db yields a
// bookless plan — every engine then keeps the runtime greedy ordering).
// bound flags the query's adorned head argument positions (true = the query
// supplies a constant there); the bounded path pre-binds those variables
// when costing its expansion rules, which is why the plan cache keys plans
// by adornment. The chosen orders and the summed cost estimate land on the
// "plan-compile" span and in PlanInfo.
func CompilePlanDB(sys *ast.RecursiveSystem, db *storage.Database, bound []bool, opts Opts) (*Plan, error) {
	cls := opts.parent().Child("classify")
	res, err := classify.Classify(sys.Recursive)
	if err != nil {
		cls.End()
		return nil, err
	}
	cls.SetStr("class", res.Class.Code())
	if res.Bounded {
		cls.SetInt("rank", int64(res.RankBound))
	}
	cls.End()
	pc := opts.parent().Child("plan-compile")
	defer pc.End()
	p, err := compilePlan(sys, res)
	if err != nil {
		return nil, err
	}
	if db != nil {
		p.compileBook(db, bound)
		if p.book != nil {
			pc.SetInt("cost", int64(p.book.cost))
			if len(p.book.desc) > 0 {
				pc.SetStr("orders", strings.Join(p.book.desc, "; "))
			}
		}
	}
	pc.SetStr("kind", p.Kind.String())
	return p, nil
}

// compileBook attaches the kind-appropriate order book: the rules the
// chosen engine will actually enumerate (the stabilized system's for
// PlanStable, the expansion union's for PlanBounded), costed against db's
// current statistics. The TC kernel gets none — its frontier BFS never
// runs a conjunction.
func (p *Plan) compileBook(db *storage.Database, bound []bool) {
	switch p.Kind {
	case PlanTC:
	case PlanBounded:
		boundOf := func(r ast.Rule) map[string]bool {
			m := make(map[string]bool, len(bound))
			for i, t := range r.Head.Args {
				if i < len(bound) && bound[i] && t.IsVar() {
					m[t.Name] = true
				}
			}
			return m
		}
		p.book = compileOrderBook(db.Syms, p.rules, db, boundOf)
	case PlanStable:
		p.book = compileOrderBook(db.Syms, p.stable.Program().Rules, db, nil)
	default:
		p.book = compileOrderBook(db.Syms, p.sys.Program().Rules, db, nil)
	}
}

// planInfo builds the Stats.Plan record for one answered query.
func (p *Plan) planInfo() *PlanInfo {
	pi := &PlanInfo{Class: p.Class, Strategy: p.Kind.String()}
	if p.book != nil {
		pi.Cost = int64(p.book.cost)
		pi.Orders = p.book.desc
	}
	return pi
}

// compilePlan builds the plan for a precomputed classification.
func compilePlan(sys *ast.RecursiveSystem, res *classify.Result) (*Plan, error) {
	p := &Plan{Class: res.Class.Code(), sys: sys}
	if shape, ok := detectTC(sys); ok {
		p.Kind = PlanTC
		p.tc = shape
		return p, nil
	}
	if res.Bounded {
		rules, err := rewrite.NonRecursiveExpansions(sys, res.RankBound)
		if err != nil {
			return nil, err
		}
		p.Kind = PlanBounded
		p.rank = res.RankBound
		p.rules = rules
		return p, nil
	}
	if res.Transformable && !res.Stable {
		stable, err := rewrite.ToStableClassified(sys, res)
		if err != nil {
			return nil, err
		}
		p.Kind = PlanStable
		p.stable = stable
		return p, nil
	}
	p.Kind = PlanGeneric
	return p, nil
}

// Answer evaluates the query over the database along the compiled path.
// Stats.Plan carries the plan's class and strategy; the planner overwrites
// its CacheHit field when the plan came from the cache.
func (p *Plan) Answer(q ast.Query, db *storage.Database) (*storage.Relation, Stats, error) {
	return p.AnswerOpts(q, db, Opts{})
}

// AnswerOpts is Answer with instrumentation threaded into the compiled
// path's engine.
func (p *Plan) AnswerOpts(q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	rel, _, st, err := p.answerAux(q, db, opts)
	return rel, st, err
}

// answerAux is the serving-path variant of AnswerOpts: alongside the answer
// it returns the plan-class-specific state the result cache needs to
// maintain the entry incrementally across writes (maintain.go) — the exit
// relation and BFS closure for TC plans, the materialized IDB fixpoint for
// the parallel plans, nil for bounded plans (their answers alone suffice).
func (p *Plan) answerAux(q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, any, Stats, error) {
	var (
		rel *storage.Relation
		aux any
		st  Stats
		err error
	)
	if opts.book == nil {
		opts.book = p.book
	}
	switch p.Kind {
	case PlanTC:
		var ta *tcAux
		rel, ta, st, err = tcEvalAux(p.sys, p.tc, q, db, opts, sink{})
		if ta != nil {
			aux = ta
		}
	case PlanBounded:
		rel, st, err = boundedAnswer(p.sys, p.rules, q, db, opts, sink{})
	case PlanStable:
		rel, aux, st, err = fixpointAnswerAux(p.stable, q, db, opts)
	default:
		rel, aux, st, err = fixpointAnswerAux(p.sys, q, db, opts)
	}
	if err != nil {
		return nil, nil, st, err
	}
	st.Plan = p.planInfo()
	return rel, aux, st, nil
}

// fixpointAnswerAux runs the round driver over the system's program and
// selects the query's answers, keeping the materialized IDB fixpoint as the
// entry's maintenance state.
func fixpointAnswerAux(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, any, Stats, error) {
	prog := sys.Program()
	out, st, err := ParallelSemiNaiveOpts(prog, db, opts)
	if err != nil {
		return nil, nil, st, err
	}
	ans, err := AnswerQuery(out, q)
	if err != nil {
		return nil, nil, st, err
	}
	return ans, newFixAux(prog, out), st, nil
}
