package eval

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// The classification-driven compiler layer. CompilePlanOpts compiles a Plan
// for any rule set: a single linear recursive system is classified once and
// gets the evaluation strategy the paper's analysis licenses, with the
// database-independent rewriting artifacts (the bounded expansion union, the
// magic program) materialized so that answering only does per-database work;
// every other program gets the classless generic plan. Plan.over is the one
// place a query is routed to a kernel, and it picks only among what the plan
// compiled. Plans are immutable after compilation and safe for
// concurrent use on distinct databases; the Planner in plancache.go caches
// them per (program, adornment).

// Source is a rule set a plan can be compiled from: an *ast.RecursiveSystem
// (used as is) or an *ast.Program (planned as the linear system it forms,
// generically when it forms none).
type Source interface {
	Program() *ast.Program
}

// PlanKind names the compiled fast path chosen for a system.
type PlanKind uint8

const (
	// PlanTC runs the frontier-BFS transitive-closure kernel (tc.go) for
	// bound queries; Plan.over runs the all-free query generically.
	PlanTC PlanKind = iota
	// PlanBounded evaluates the finite non-recursive expansion union in a
	// single stratified pass (§5; no fixpoint).
	PlanBounded
	// PlanStable is PlanGeneric for a transformable system, whose bound
	// streams run the Theorem-2/4 stabilized system's magic program.
	PlanStable
	// PlanGeneric runs the parallel semi-naive engine on the original rules
	// (classes C, E, F, for which the paper gives no closed plan, and every
	// program that is not one linear system).
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

// Plan is a compiled evaluation plan for one program: the classification
// outcome, when the program is a linear recursive system, plus the
// database-independent artifacts of the chosen fast path.
type Plan struct {
	// Class is the paper's classification code (A1–A5, B, C, D, E, F); empty
	// for a program that is not a single linear system.
	Class string
	// Kind is the chosen fast path.
	Kind PlanKind

	sys   *ast.RecursiveSystem // the classified system; nil for a classless plan
	tc    *tcShape             // PlanTC
	rules []ast.Rule           // PlanBounded: exit + substituted expansions
	// fix is what the fixpoint kinds run: the source as given.
	fix Source

	// book holds the cost-based join orders compiled from the plan
	// database's column statistics (cost.go); nil when the plan was compiled
	// without a database (CompilePlanOpts) or for the TC kernel, which never
	// enumerates conjunctions. The planner's cache key includes the
	// database's statistics epoch, so a book never outlives its statistics.
	book *orderBook
	// magic is what a bound stream of a classified stable or generic plan
	// runs (Plan.run): the adornment's magic-sets program; else nil.
	magic *magicProgram
	// generic is a TC or bounded plan's fallback (Plan.over): the original
	// rules on the parallel engine, with their own book.
	generic *Plan
}

// CompilePlanOpts compiles the plan for the source's rules. A linear
// recursive system is classified and gets, in selection order: the
// transitive-closure shape over a stored exit relation (its kernel beats
// every generic engine on bound queries), then boundedness (recursion
// elimination), then transformability (stabilize, for the magic program),
// then the generic parallel engine; the classification is recorded under a
// "classify" span (class code, rank when bounded). Any
// other program compiles to the generic engine unclassified. The strategy
// selection plus rewriting land under a "plan-compile" span (kind).
func CompilePlanOpts(src Source, opts Opts) (*Plan, error) {
	return CompilePlanDB(src, nil, nil, opts)
}

// CompilePlanDB is CompilePlanOpts additionally compiling the plan's
// cost-based join orders from db's column statistics (a nil db yields a
// bookless plan — every engine then keeps the runtime greedy ordering).
// bound flags the query's adorned head argument positions (true = the query
// supplies a constant there); the bounded path pre-binds those variables
// when costing its expansion rules, and a classified stable or generic plan
// compiles its magic-sets program for them (a stable plan's from the
// stabilized system), which is why the plan cache keys plans by adornment. A
// TC or bounded plan's generic fallback gets its own book. The
// plan's orders and summed cost land on the "plan-compile" span and in
// PlanInfo.
func CompilePlanDB(src Source, db *storage.Database, bound []bool, opts Opts) (*Plan, error) {
	p, pc, err := compilePlan(src, db, bound, opts)
	if err != nil {
		return nil, err
	}
	defer pc.End()
	if db != nil {
		p.compileBook(db, bound)
		if p.generic != nil {
			p.generic.compileBook(db, bound)
		}
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
// chosen engine will actually enumerate (the source's for the fixpoint
// kinds, the expansion union's for PlanBounded), costed against db's
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
		p.book = compileOrderBook(db.Syms, p.rules, db, "", boundOf)
	default:
		p.book = compileOrderBook(db.Syms, p.fix.Program().Rules, db, "", nil)
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

// compilePlan is the only place that asks whether the source's rules are one
// linear recursive system: an *ast.RecursiveSystem is one, an *ast.Program is
// one when ast.SystemOf extracts it and it carries no facts of its own (the
// classified kernels read the database only). The system is classified under
// a "classify" span and rewritten under "plan-compile", returned open for the
// caller to record the order book on; anything else runs generically. A
// classified fixpoint plan gets the bound adornment's magic program there, a
// stable plan's rewritten from the stabilized system: the one reader of its
// unfolded rule.
func compilePlan(src Source, db *storage.Database, bound []bool, opts Opts) (*Plan, *obs.Span, error) {
	var sys *ast.RecursiveSystem
	switch s := src.(type) {
	case *ast.RecursiveSystem:
		sys = s
	case *ast.Program:
		if len(s.Facts) == 0 {
			sys, _ = ast.SystemOf(s) // an error says "not one linear system": planned generically
		}
	}
	if sys == nil {
		return &Plan{Kind: PlanGeneric, fix: src}, opts.parent().Child("plan-compile"), nil
	}
	cls := opts.parent().Child("classify")
	res, err := classify.Classify(sys.Recursive)
	if err != nil {
		cls.End()
		return nil, nil, err
	}
	cls.SetStr("class", res.Class.Code())
	if res.Bounded {
		cls.SetInt("rank", int64(res.RankBound))
	}
	cls.End()
	pc := opts.parent().Child("plan-compile")
	p, msys := &Plan{Class: res.Class.Code(), sys: sys}, sys
	switch shape, isTC := detectTC(sys); {
	case isTC:
		p.Kind, p.tc = PlanTC, shape
	case res.Bounded:
		p.Kind = PlanBounded
		p.rules, err = rewrite.NonRecursiveExpansions(sys, res.RankBound)
	case res.Transformable && !res.Stable:
		p.Kind, p.fix = PlanStable, sys
		msys, err = rewrite.ToStableClassified(sys, res)
	default:
		p.Kind, p.fix = PlanGeneric, sys
	}
	if err != nil {
		pc.End()
		return nil, nil, err
	}
	if p.fix == nil {
		p.generic = &Plan{Class: p.Class, Kind: PlanGeneric, fix: sys}
	} else if len(bound) == sys.Arity() && adorn.Adornment(bound).BoundCount() > 0 {
		p.magic = compileMagic(msys, bound, db, pc)
	}
	return p, pc, nil
}

// over is the one place a query is routed: it returns the plan whose kernel
// serves q on db and, for a bound stream of a classified stable or generic
// plan, the magic program it runs (Plan.run), else nil; on a plan from the
// Planner, only what the plan compiled. When the database stores tuples under
// p itself, which the TC kernel, the expansion union and the adorned
// predicates all assume absent (p = exits ∪ recursion over exits), the
// original rules serve: a fixpoint plan's own, a TC or bounded plan's generic
// fallback; the fallback also serves a TC plan's all-free query, which has no
// selection to push down the σ-chain.
func (p *Plan) over(q ast.Query, db *storage.Database, stream bool) (*Plan, *magicProgram) {
	if p.sys == nil {
		return p, nil
	}
	bound := slices.ContainsFunc(q.Atom.Args, func(t ast.Term) bool { return !t.IsVar() })
	if stored := db.Rel(p.sys.Pred()); stored != nil && stored.Len() > 0 || p.Kind == PlanTC && !bound {
		return cmp.Or(p.generic, p), nil // a fixpoint plan is its own fallback
	}
	sys, fixpoint := p.fix.(*ast.RecursiveSystem)
	if !stream || !bound || !fixpoint || q.Atom.Pred != sys.Pred() || len(q.Atom.Args) != sys.Arity() {
		return p, nil
	}
	m := p.magic
	for i, t := range q.Atom.Args {
		if m != nil && t.IsVar() != (m.adorn[i] == 'v') {
			m = nil
		}
	}
	if m == nil { // a plan compiled for another adornment: rewrite its own rules
		m = compileMagic(sys, adorn.FromQuery(q), nil, nil)
	}
	return p, m
}

// AnswerOpts evaluates the query over the database along the compiled path.
// Stats.Plan carries the plan's class and strategy; the planner overwrites
// its CacheHit field when the plan came from the cache.
func (p *Plan) AnswerOpts(q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	p, _ = p.over(q, db, false)
	rel, _, st, err := p.run(nil, q, db, opts, sink{})
	return rel, st, err
}

// run hands a routed plan (p and m as Plan.over returned them) to its
// kernel. With the zero sink it materializes: the answers come back with the
// state the result cache maintains them by (maintain.go) — a TC entry's BFS
// visited set, the parallel plans' IDB fixpoint (the program's view), nil
// for bounded plans. With an emit sink it streams each answer as its round
// derives it; a declined emit ends the evaluation with errStreamStop
// (returned with the stats, not an error to the consumer).
func (p *Plan) run(m *magicProgram, q ast.Query, db *storage.Database, opts Opts, snk sink) (rel *storage.Relation, aux any, st Stats, err error) {
	if opts.book == nil {
		opts.book = p.book
	}
	switch {
	case m != nil:
		// A bound stream through the query's magic-sets program (magic.go):
		// the magic relation holds the query's constants, so the rounds
		// derive only what they reach (PAPER.md §5's selections before
		// joins), and the sink watches the adorned query predicate. A
		// constant the database never interned ends the stream at once.
		if seeded, known := m.seeded(q, db); known {
			snk.pred, snk.magic, opts.book = m.pred, m.adorn, m.book
			_, _, st, err = fixpointAnswer(m.Program, &m.compiled, q, seeded, opts, snk)
		}
	case p.Kind == PlanTC:
		var visited *storage.ValueSet
		if rel, visited, st, err = tcEvalAux(p.sys, p.tc, q, db, opts, snk); visited != nil {
			aux = visited
		}
	case p.Kind == PlanBounded:
		rel, st, err = boundedAnswer(p.sys, p.rules, q, db, opts, snk)
	default:
		rel, aux, st, err = fixpointAnswer(p.fix.Program(), nil, q, db, opts, snk)
	}
	if err != nil && err != errStreamStop {
		return nil, nil, st, err
	}
	st.Plan = p.planInfo()
	return rel, aux, st, err
}

// viewed reports whether a routed plan runs the round driver over a program
// (the stable and generic kinds): the result cache keeps its fixpoint.
func (p *Plan) viewed() bool { return p.fix != nil }

// fixpointAnswer runs the round driver over the program. Materializing, it
// selects the query's answers from the finished fixpoint, which it hands
// back for the result cache to keep as the program's view. Streaming, it shows the sink each fresh
// tuple of the query predicate that matches the query's constants — the same
// selection, applied as the rounds derive — and returns no relation.
func fixpointAnswer(prog *ast.Program, cache *atomic.Pointer[compiledProgram], q ast.Query, db *storage.Database, opts Opts, snk sink) (*storage.Relation, any, Stats, error) {
	if emit := snk.emit; emit != nil {
		// The program's facts and head constants are interned as it runs:
		// an unknown constant is looked up again whenever the symbols grew.
		bound, vals, known := selection(q, db.Syms)
		syms := db.Syms.Len()
		snk.emit = func(t storage.Tuple) bool {
			if !known && db.Syms.Len() != syms {
				syms = db.Syms.Len()
				bound, vals, known = selection(q, db.Syms)
			}
			if !known || len(t) != len(vals) || !matches(bound, vals, t) {
				return true
			}
			return emit(t)
		}
	}
	out, st, err := fixpoint(prog, cache, db, opts, snk)
	if err != nil || snk.emit != nil {
		return nil, nil, st, err
	}
	ans, err := AnswerQuery(out, q)
	if err != nil {
		return nil, nil, st, err
	}
	return ans, newFixAux(prog, out), st, nil
}
