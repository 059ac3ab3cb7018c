package eval

import (
	"fmt"
	"sync/atomic"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// magicProgram is a linear recursive system's magic-sets rewrite for one
// query adornment: the reference "magic" strategy's program, and the one a
// bound stream of a fixpoint plan runs. Adorned predicates p@a and magic
// predicates magic@a are generated per adornment the determined-variable
// closure (adorn.Step) reaches from the query's.
type magicProgram struct {
	*ast.Program
	pred, seed string // the query's adorned predicate and its magic one
	adorn      string // the query adornment it was rewritten for
	adornments int
	// book holds the rules' orders, the seed costed as one tuple; nil when
	// compiled without a database (the runtime greedy ordering).
	book     *orderBook
	compiled atomic.Pointer[compiledProgram] // the last compile (compileProgram)
}

// compileMagic rewrites the system for the adornment under a "magic-rewrite"
// span below parent and, given a database, compiles its order book.
func compileMagic(sys *ast.RecursiveSystem, a adorn.Adornment, db *storage.Database, parent *obs.Span) *magicProgram {
	mr := parent.Child("magic-rewrite")
	m := rewriteMagic(sys, a)
	if db != nil {
		m.book = compileOrderBook(db.Syms, m.Rules, db, m.seed, nil)
	}
	mr.SetInt("adornments", int64(m.adornments)).SetInt("rules", int64(len(m.Rules))).End()
	return m
}

// rewriteMagic rewrites the system for the adornment. Each magic propagation
// rule joins only the non-recursive literals the closure reaches from the
// bound head positions (adorn.StepReach): dropping the others can only
// enlarge the magic set, which the adorned rules filter anyway, and keeps a
// stabilized system's unrelated (often Cartesian) literals out of the join.
func rewriteMagic(sys *ast.RecursiveSystem, a0 adorn.Adornment) *magicProgram {
	rule := sys.Recursive
	recAtom, recIdx := rule.RecursiveAtom()
	pName := func(a adorn.Adornment) string { return sys.Pred() + "@" + a.String() }
	mAtom := func(a adorn.Adornment, atom ast.Atom) ast.Atom {
		var bound []ast.Term
		for i, t := range atom.Args {
			if a[i] {
				bound = append(bound, t)
			}
		}
		return ast.NewAtom("magic@"+a.String(), bound...)
	}
	m := &magicProgram{Program: &ast.Program{}, pred: pName(a0), seed: "magic@" + a0.String(), adorn: a0.String()}
	seen := map[string]bool{}
	for work := []adorn.Adornment{a0}; len(work) > 0; work = work[1:] {
		a := work[0]
		if seen[a.String()] {
			continue
		}
		seen[a.String()] = true
		b, reached := adorn.StepReach(rule, a)
		work = append(work, b)
		// m_b(bound rec args) :- m_a(bound head args), reached NR.
		m.AddRule(ast.NewRule(mAtom(b, recAtom), append([]ast.Atom{mAtom(a, rule.Head)}, reached...)...))
		// p_a(head) :- m_a(bound head), NR, p_b(rec args).
		body := append([]ast.Atom{mAtom(a, rule.Head)}, rule.Body[:recIdx]...)
		body = append(append(body, rule.Body[recIdx+1:]...), ast.NewAtom(pName(b), recAtom.Args...))
		m.AddRule(ast.NewRule(ast.NewAtom(pName(a), rule.Head.Args...), body...))
		// p_a(head) :- m_a(bound head), exit body.
		for _, exit := range sys.Exits {
			m.AddRule(ast.NewRule(ast.NewAtom(pName(a), exit.Head.Args...), append([]ast.Atom{mAtom(a, exit.Head)}, exit.Body...)...))
		}
	}
	m.adornments = len(seen)
	return m
}

// seeded returns a database reading db's relations plus the magic relation
// of the query's adornment, holding the query's constants. A query constant
// is never interned into db's shared symbols: ok is false when one is
// unknown, as no answer can then carry it. (The program's head constants
// are interned first, as evaluating the program would.)
func (m *magicProgram) seeded(q ast.Query, db *storage.Database) (*storage.Database, bool) {
	for _, r := range m.Rules {
		for _, t := range r.Head.Args {
			if !t.IsVar() {
				db.Syms.Intern(t.Name)
			}
		}
	}
	bound, vals, ok := selection(q, db.Syms)
	if !ok {
		return nil, false
	}
	out := storage.NewDatabaseWithSymbols(db.Syms)
	for _, pred := range db.Preds() {
		out.Set(pred, db.Rel(pred))
	}
	seed := make(storage.Tuple, 0, len(vals))
	for i, b := range bound {
		if b {
			seed = append(seed, vals[i])
		}
	}
	rel := storage.NewRelation(len(seed))
	rel.Insert(seed)
	out.Set(m.seed, rel)
	return out, true
}

// MagicSetsOpts answers the query by evaluating the system's magic-sets
// rewrite for the query's adornment with SemiNaiveOpts (the round driver on
// one worker), the rewriting recorded under a "magic-rewrite" span
// (adornment count, generated rules). Like the paper, it assumes the
// database stores no tuples under the recursive predicate itself.
func MagicSetsOpts(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	n := sys.Arity()
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != n {
		return nil, Stats{}, fmt.Errorf("eval: query %v does not match predicate %s/%d", q, sys.Pred(), n)
	}
	m := compileMagic(sys, adorn.FromQuery(q), nil, opts.parent())
	seeded, ok := m.seeded(q, db)
	if !ok {
		return storage.NewRelation(n), Stats{}, nil
	}
	out, st, err := SemiNaiveOpts(m.Program, seeded, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	answers, err := AnswerQuery(out, ast.Query{Atom: ast.NewAtom(m.pred, q.Atom.Args...)})
	return answers, st, err
}
