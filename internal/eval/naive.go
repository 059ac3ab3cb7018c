package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// compiledRule pairs a rule with its compiled body, head projection and —
// when an order book is in force — its cost-chosen join orders.
type compiledRule struct {
	rule  ast.Rule
	conj  *Conj
	slots []int
	fixed storage.Tuple
	// ord is the rule's compiled ordering decision, nil when evaluation
	// uses the dynamic greedy ordering (no book, or the body was too large
	// for the search).
	ord *ruleOrder
}

// fullOrder returns the compiled order for a full evaluation (nil = dynamic).
func (cr *compiledRule) fullOrder() []int {
	if cr.ord == nil {
		return nil
	}
	return cr.ord.full
}

// seededOrder returns the compiled order with atom bi leading (the delta
// occurrence), and its per-input-tuple cost estimate.
func (cr *compiledRule) seededOrder(bi int) ([]int, float64) {
	if cr.ord == nil || bi >= len(cr.ord.seeded) {
		return nil, 0
	}
	return cr.ord.seeded[bi], cr.ord.seedCost[bi]
}

func compileRules(syms *storage.Symbols, rules []ast.Rule, book *orderBook) ([]compiledRule, error) {
	out := make([]compiledRule, 0, len(rules))
	for _, r := range rules {
		c := CompileConj(syms, r.Body)
		slots, fixed, err := headSlots(c, syms, r.Head)
		if err != nil {
			return nil, fmt.Errorf("rule %v: %w", r, err)
		}
		out = append(out, compiledRule{rule: r, conj: c, slots: slots, fixed: fixed, ord: book.orderFor(r)})
	}
	return out, nil
}

// prepare returns a working database that shares EDB relations with db but
// owns fresh (or cloned) relations for every IDB predicate, plus the list
// of IDB predicates. Program facts are inserted into the working database.
func prepare(prog *ast.Program, db *storage.Database) (*storage.Database, map[string]bool, error) {
	work := storage.NewDatabaseWithSymbols(db.Syms)
	idb := make(map[string]bool)
	for _, r := range prog.Rules {
		idb[r.Head.Pred] = true
	}
	// Share EDB relations; clone or create IDB relations.
	for _, pred := range db.Preds() {
		if idb[pred] {
			work.Set(pred, db.Rel(pred).Clone())
		} else {
			work.Set(pred, db.Rel(pred))
		}
	}
	for _, r := range prog.Rules {
		if _, err := work.Ensure(r.Head.Pred, r.Head.Arity()); err != nil {
			return nil, nil, err
		}
	}
	for _, f := range prog.Facts {
		names := make([]string, len(f.Args))
		for i, t := range f.Args {
			names[i] = t.Name
		}
		if idb[f.Pred] {
			if _, err := work.Insert(f.Pred, names...); err != nil {
				return nil, nil, err
			}
		} else {
			// EDB facts belong to the caller's database; inserting here
			// would mutate a shared relation, so clone first.
			r := work.Rel(f.Pred)
			if r == nil {
				if _, err := work.Ensure(f.Pred, len(f.Args)); err != nil {
					return nil, nil, err
				}
			} else if db.Rel(f.Pred) == r {
				work.Set(f.Pred, r.Clone())
			}
			if _, err := work.Insert(f.Pred, names...); err != nil {
				return nil, nil, err
			}
		}
	}
	return work, idb, nil
}

// strataOf returns the evaluation groups of the program: a single group
// holding every rule for pure positive programs, or the stratification for
// programs with negated literals (ast.Stratify errors on recursion through
// negation or unsafe rules).
func strataOf(prog *ast.Program) ([][]ast.Rule, error) {
	if !ast.HasNegation(prog) {
		if len(prog.Rules) == 0 {
			return nil, nil
		}
		return [][]ast.Rule{prog.Rules}, nil
	}
	return ast.Stratify(prog)
}

// NaiveOpts computes the bottom-up fixpoint of the program over db by full
// re-evaluation each round — the textbook baseline. Programs with negated
// body literals are evaluated stratum by stratum (stratified semantics).
// The returned database shares EDB relations with db and holds the
// materialized IDB relations. Instrumentation: per-round records in
// Stats.Trace, spans (fixpoint → round → per-rule join) on opts.Tracer, and
// counters on the metrics registry.
func NaiveOpts(prog *ast.Program, db *storage.Database, opts Opts) (*storage.Database, Stats, error) {
	work, idb, err := prepare(prog, db)
	if err != nil {
		return nil, Stats{}, err
	}
	cp, err := compileProgram(prog, db.Syms, opts.book, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	fix := opts.parent().Child("fixpoint").SetStr("engine", "naive")
	defer fix.End()
	var st Stats
	sink := newRoundSink(&st, opts, fix)
	round := 0
	for si, rules := range cp.strata {
		r0 := round
		if err := naiveFixpoint(work, rules, si, &round, &st, &sink); err != nil {
			return nil, st, err
		}
		sink.stratumDone(round - r0)
	}
	fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
	flushDB(opts, &st, work, idb)
	return work, st, nil
}

// naiveFixpoint runs full re-evaluation rounds of the rule group to
// saturation within work.
func naiveFixpoint(work *storage.Database, rules []compiledRule, stratum int, round *int, st *Stats, sink *roundSink) error {
	rels := DBRels(work)
	// One full re-evaluation of the group costs the same estimate every
	// round under the compiled orders.
	var roundEst int64
	for i := range rules {
		if rules[i].ord != nil && rules[i].ord.full != nil {
			roundEst += int64(rules[i].ord.fullCost)
		}
	}
	for {
		*round++
		st.Rounds++
		sink.begin()
		added := 0
		facts0, visited0 := st.Facts, st.Visited
		for i := range rules {
			cr := &rules[i]
			var rsp *obs.Span
			if sink.traced() {
				rsp = sink.rule(cr.rule.String())
			}
			ruleAdded, ruleFacts, ruleVisited := added, st.Facts, st.Visited
			head := work.Rel(cr.rule.Head.Pred)
			buf := make(storage.Tuple, len(cr.slots))
			cr.conj.EvalWith(rels, cr.conj.NewBinding(), cr.fullOrder(), &st.Visited, func(b []storage.Value) bool {
				project(buf, cr.slots, cr.fixed, b)
				st.Facts++
				if head.Insert(buf) {
					added++
				}
				return true
			})
			rsp.SetInt("derived", int64(added-ruleAdded)).SetInt("attempted", int64(st.Facts-ruleFacts)).SetInt("visited", st.Visited-ruleVisited).End()
		}
		st.Derived += added
		sink.end(RoundStats{Round: *round, Stratum: stratum, Derived: added, Attempted: st.Facts - facts0,
			Estimated: roundEst, Visited: st.Visited - visited0})
		if added == 0 {
			return nil
		}
	}
}

// AnswerQuery selects from the materialized database the tuples matching the
// query atom's constants and returns them as a relation of the query's
// arity.
func AnswerQuery(db *storage.Database, q ast.Query) (*storage.Relation, error) {
	return selectAnswers(db.Rel(q.Atom.Pred), q, db.Syms)
}

// selectAnswers copies the tuples of rel (nil: none) that carry the query's
// constants into a fresh relation.
func selectAnswers(rel *storage.Relation, q ast.Query, syms *storage.Symbols) (*storage.Relation, error) {
	out := storage.NewRelation(q.Atom.Arity())
	if rel == nil {
		return out, nil
	}
	if rel.Arity() != q.Atom.Arity() {
		return nil, fmt.Errorf("eval: query arity %d vs relation %d", q.Atom.Arity(), rel.Arity())
	}
	bound, vals, ok := selection(q, syms)
	if !ok {
		return out, nil
	}
	rel.EachMatch(bound, vals, func(t storage.Tuple) bool {
		out.Insert(t)
		return true
	})
	return out, nil
}

// selection resolves the query's constants: bound flags their positions and
// vals holds their values. ok is false when one was never interned — no
// tuple of the database can match.
func selection(q ast.Query, syms *storage.Symbols) (bound []bool, vals storage.Tuple, ok bool) {
	bound = make([]bool, q.Atom.Arity())
	vals = make(storage.Tuple, q.Atom.Arity())
	for i, t := range q.Atom.Args {
		if !t.IsVar() {
			bound[i] = true
			if vals[i], ok = syms.Lookup(t.Name); !ok {
				return bound, vals, false
			}
		}
	}
	return bound, vals, true
}

// matches reports whether t carries the selection's constants.
func matches(bound []bool, vals, t storage.Tuple) bool {
	for i, b := range bound {
		if b && t[i] != vals[i] {
			return false
		}
	}
	return true
}
