package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// BoundedEvalOpts evaluates a query over a bounded system (§5, §7: classes
// B, D and the bounded combinations of Theorems 10 and 11) by materializing
// the equivalent finite set of non-recursive formulas — the expansions
// 0..rank with the recursive literal replaced by the exit relation — and
// evaluating each as a conjunctive query with the query's selections pushed
// in. No fixpoint is ever computed: the work is independent of how much
// deeper the naive evaluation would iterate. Each expansion rule becomes one
// round under a "fixpoint" span tagged engine=bounded.
func BoundedEvalOpts(sys *ast.RecursiveSystem, rank int, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	if rank < 0 {
		return nil, Stats{}, fmt.Errorf("eval: negative rank %d", rank)
	}
	rules, err := rewrite.NonRecursiveExpansions(sys, rank)
	if err != nil {
		return nil, Stats{}, err
	}
	return boundedAnswer(sys, rules, q, db, opts, sink{})
}

// boundedAnswer evaluates a pre-expanded bounded union (from BoundedEvalOpts or a
// compiled PlanBounded) under the engine's span and metric plumbing. With a
// streaming sink each fresh answer is emitted the moment its expansion rule
// derives it, and a declined emit abandons the remaining expansions with
// errStreamStop.
func boundedAnswer(sys *ast.RecursiveSystem, rules []ast.Rule, q ast.Query, db *storage.Database, opts Opts, snk sink) (*storage.Relation, Stats, error) {
	n := sys.Arity()
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != n {
		return nil, Stats{}, fmt.Errorf("eval: query %v does not match predicate %s/%d", q, sys.Pred(), n)
	}
	fix := opts.parent().Child("fixpoint").SetStr("engine", "bounded")
	defer fix.End()
	answers := storage.NewRelation(n)
	var st Stats
	rs := newRoundSink(&st, opts, fix)
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		rs.stratumDone(st.Rounds)
		flushRels(opts, &st, answers)
	}()
	err := unionRules(rules, q, db, answers, &st, &rs, opts, snk)
	if err != nil && err != errStreamStop {
		return nil, st, err
	}
	return answers, st, err
}

// unionRules evaluates each non-recursive rule as a conjunctive query with
// the query's constants pushed into the body binding, accumulating the
// projected heads into answers and showing each fresh one to the sink: one
// round (and one join span) per rule, with an abort check between rules.
// Head arguments may be constants (exit rules with constant heads, and
// expansions whose exit unification pinned a position): such a rule
// contributes only when the query agrees with the constant, which then
// appears verbatim in every answer tuple. Shared by the bounded plan's
// materialized, streamed and maintained paths.
func unionRules(rules []ast.Rule, q ast.Query, db *storage.Database, answers *storage.Relation, st *Stats, rs *roundSink, opts Opts, snk sink) error {
	n := q.Atom.Arity()
	rels := DBRels(db)
	// The projection buffers are written from scratch for every rule and
	// consumed within its enumeration, so one set serves all rules.
	slots := make([]int, n)
	fixed := make(storage.Tuple, n)
	buf := make(storage.Tuple, n)
	for _, r := range rules {
		if opts.canceled() {
			return fmt.Errorf("bounded union: %w", ErrCanceled)
		}
		st.Rounds++
		rs.begin()
		var rsp *obs.Span
		if rs.traced() {
			rsp = rs.rule(r.String())
		}
		c, binding, ok, err := bindHead(r, q, db, slots, fixed)
		if err != nil {
			return err
		}
		if !ok {
			rsp.End()
			rs.end(RoundStats{Round: st.Rounds})
			continue
		}
		// The plan's order book (compiled per adornment, so the pre-bound
		// head constants the search assumed are exactly the ones bindHead
		// just pushed into the binding) replaces the greedy ordering when
		// present.
		var order []int
		var est int64
		if ord := opts.book.orderFor(r); ord != nil && ord.full != nil {
			order = ord.full
			est = int64(ord.fullCost)
		}
		derived0, visited0 := st.Derived, st.Visited
		stopped := false
		c.EvalWith(rels, binding, order, &st.Visited, func(b []storage.Value) bool {
			project(buf, slots, fixed, b)
			if answers.Insert(buf) {
				st.Derived++
				// Insert copied buf into the arena; the sink sees the stable
				// arena-backed header, not the scratch buffer.
				stopped = !snk.fresh(q.Atom.Pred, answers.At(answers.Len()-1))
			}
			return !stopped
		})
		rsp.SetInt("derived", int64(st.Derived-derived0)).End()
		rs.end(RoundStats{Round: st.Rounds, Derived: st.Derived - derived0, Estimated: est, Visited: st.Visited - visited0})
		if stopped {
			return errStreamStop
		}
	}
	return nil
}

// bindHead compiles one expansion rule's body and unifies its head with the
// query: query constants are pushed into the body binding (or checked against
// constant head arguments), and the projection buffers are filled so slot i
// reads body variable slots[i], or the pinned value fixed[i] when slots[i] is
// -1. ok is false when the head cannot unify with the query — the rule
// contributes no answers.
func bindHead(r ast.Rule, q ast.Query, db *storage.Database, slots []int, fixed storage.Tuple) (*Conj, []storage.Value, bool, error) {
	c := CompileConj(db.Syms, r.Body)
	binding := c.NewBinding()
	for i, t := range r.Head.Args {
		qa := q.Atom.Args[i]
		if !t.IsVar() {
			v := db.Syms.Intern(t.Name)
			if !qa.IsVar() {
				qv, found := db.Syms.Lookup(qa.Name)
				if !found || qv != v {
					return c, binding, false, nil
				}
			}
			slots[i] = -1
			fixed[i] = v
			continue
		}
		slot := c.VarID(t.Name)
		if !qa.IsVar() {
			// Push the query constant into the body binding.
			v, found := db.Syms.Lookup(qa.Name)
			if !found {
				return c, binding, false, nil
			}
			if slot >= 0 {
				if binding[slot] != Unbound && binding[slot] != v {
					return c, binding, false, nil
				}
				binding[slot] = v
			}
			slots[i] = -1
			fixed[i] = v
		} else {
			if slot < 0 {
				return c, binding, false, fmt.Errorf("eval: head variable %s unbound in expansion %v", t.Name, r)
			}
			slots[i] = slot
		}
	}
	return c, binding, true, nil
}
