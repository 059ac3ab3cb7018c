package eval

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/storage"
)

// MagicSetsOpts rewrites the linear recursive system for the query's adornment
// using the magic-sets transformation (the standard post-1988 baseline the
// reproduction compares the paper's compiled plans against) and evaluates
// the rewritten program semi-naively.
//
// Adorned predicates p_a and magic predicates m_a are generated on demand:
// the adornment of the recursive literal follows the paper's determined-
// variable closure (adorn.Step), so one recursive rule can fan out into a
// small family of adorned rules, one per reachable adornment.
//
// The rewriting itself is recorded under a "magic-rewrite" span (adornment
// count, generated rules) and the semi-naive evaluation of the rewritten
// program attaches its own fixpoint span as a sibling. Like the paper, it
// assumes the database stores no tuples under the recursive predicate itself.
func MagicSetsOpts(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	n := sys.Arity()
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != n {
		return nil, Stats{}, fmt.Errorf("eval: query %v does not match predicate %s/%d", q, sys.Pred(), n)
	}
	mr := opts.parent().Child("magic-rewrite")
	a0 := adorn.FromQuery(q)
	prog := &ast.Program{}
	rule := sys.Recursive
	recAtom, recIdx := rule.RecursiveAtom()

	boundArgs := func(atom ast.Atom, a adorn.Adornment) []ast.Term {
		var out []ast.Term
		for i, t := range atom.Args {
			if a[i] {
				out = append(out, t)
			}
		}
		return out
	}
	pName := func(a adorn.Adornment) string { return sys.Pred() + "@" + a.String() }
	mName := func(a adorn.Adornment) string { return "magic@" + a.String() }

	// Generate rules per reachable adornment.
	seen := map[string]bool{}
	work := []adorn.Adornment{a0}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		if seen[a.String()] {
			continue
		}
		seen[a.String()] = true
		b := adorn.Step(rule, a)
		if !seen[b.String()] {
			work = append(work, b)
		}

		// Magic propagation: m_b(bound rec args) :- m_a(bound head args), NR.
		mHead := ast.NewAtom(mName(b), boundArgs(recAtom, b)...)
		mBody := []ast.Atom{ast.NewAtom(mName(a), boundArgs(rule.Head, a)...)}
		mBody = append(mBody, rule.NonRecursiveAtoms()...)
		prog.AddRule(ast.NewRule(mHead, mBody...))

		// Adorned recursive rule:
		// p_a(head) :- m_a(bound head), NR, p_b(rec args).
		rBody := []ast.Atom{ast.NewAtom(mName(a), boundArgs(rule.Head, a)...)}
		rBody = append(rBody, rule.Body[:recIdx]...)
		rBody = append(rBody, rule.Body[recIdx+1:]...)
		rBody = append(rBody, ast.NewAtom(pName(b), recAtom.Args...))
		prog.AddRule(ast.NewRule(ast.NewAtom(pName(a), rule.Head.Args...), rBody...))

		// Adorned exit rules: p_a(head) :- m_a(bound head), exit body.
		for _, exit := range sys.Exits {
			eBody := []ast.Atom{ast.NewAtom(mName(a), boundArgs(exit.Head, a)...)}
			eBody = append(eBody, exit.Body...)
			prog.AddRule(ast.NewRule(ast.NewAtom(pName(a), exit.Head.Args...), eBody...))
		}
	}

	// Seed magic fact from the query constants.
	seed := ast.NewAtom(mName(a0), boundArgs(q.Atom, a0)...)
	if len(seed.Args) == 0 || seed.IsGround() {
		prog.Facts = append(prog.Facts, seed)
	} else {
		mr.End()
		return nil, Stats{}, fmt.Errorf("eval: non-ground magic seed %v", seed)
	}
	mr.SetInt("adornments", int64(len(seen))).SetInt("rules", int64(len(prog.Rules))).End()

	out, st, err := SemiNaiveOpts(prog, db, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	adornedQ := ast.Query{Atom: ast.NewAtom(pName(a0), q.Atom.Args...)}
	answers, err := AnswerQuery(out, adornedQ)
	return answers, st, err
}
