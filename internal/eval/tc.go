package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// The frontier-BFS kernel for unit-rotational (transitive-closure-shaped)
// rules over an exit that renames a stored relation. A system of the form
//
//	p(X, Y) :- q(X, Z), p(Z, Y).   (right-linear)
//	p(X, Y) :- p(X, Z), q(Z, Y).   (left-linear)
//	p(X, Y) :- e(X, Y).
//
// computes p = ∪_k q^k ∘ e (respectively ∪_k e ∘ q^k). A query with a bound
// argument is PAPER.md §5's σ-chain plan ∪_k σ(q)^k − E: a breadth-first
// reachability sweep over a value frontier that walks the q edge index
// directly and never touches the unreachable part of the graph. The
// all-free query has no selection to push down, so Plan.over hands it to the
// generic plan (the program's view); so does a system whose exit is anything
// but the rename.

// tcShape records the detected orientation of a transitive-closure rule.
type tcShape struct {
	edgePred string
	// rightLinear: the edge literal precedes the recursive literal
	// (p = ∪ q^k ∘ E); otherwise left-linear (p = ∪ E ∘ q^k).
	rightLinear bool
	// exitPred names the stored predicate the exit relation E is: the one
	// exit rule p(X, Y) :- e(X, Y) renames it, and the kernel and its
	// maintenance read the database's own relation.
	exitPred string
}

// exitOf returns the exit relation E over db: db's own relation, shared with
// every reader of db and never written (an empty one when db has none).
func (s *tcShape) exitOf(db *storage.Database) (*storage.Relation, error) {
	switch rel := db.Rel(s.exitPred); {
	case rel == nil:
		return storage.NewRelation(2), nil
	case rel.Arity() != 2:
		return nil, fmt.Errorf("eval: exit relation %s has arity %d, want 2", s.exitPred, rel.Arity())
	default:
		return rel, nil
	}
}

// detectTC matches the system against the two transitive-closure
// orientations: binary head, a body of exactly one positive binary edge
// literal over a different predicate, the chain variable linking the edge to
// the recursive literal, and one exit rule renaming a stored binary relation.
// Head and recursive arguments are distinct variables by ValidateRecursive;
// the chain variable must be fresh.
func detectTC(sys *ast.RecursiveSystem) (*tcShape, bool) {
	rule := sys.Recursive
	if sys.Arity() != 2 || len(rule.Body) != 2 || !rule.IsLinearRecursive() {
		return nil, false
	}
	recAtom, recIdx := rule.RecursiveAtom()
	if recAtom.Neg {
		return nil, false
	}
	edge := rule.Body[1-recIdx]
	if edge.Neg || edge.Pred == rule.Head.Pred || edge.Arity() != 2 {
		return nil, false
	}
	for _, t := range edge.Args {
		if !t.IsVar() {
			return nil, false
		}
	}
	// p(X, Y) :- e(X, Y) with X, Y distinct variables: E is e itself.
	if len(sys.Exits) != 1 {
		return nil, false
	}
	h, b := sys.Exits[0].Head, sys.Exits[0].Body
	if len(b) != 1 || b[0].Neg || b[0].Pred == h.Pred || b[0].Arity() != 2 ||
		!h.Args[0].IsVar() || !h.Args[1].IsVar() || h.Args[0].Name == h.Args[1].Name ||
		b[0].Args[0] != h.Args[0] || b[0].Args[1] != h.Args[1] {
		return nil, false
	}
	shape := &tcShape{edgePred: edge.Pred, exitPred: b[0].Pred}
	hx, hy := rule.Head.Args[0].Name, rule.Head.Args[1].Name
	// Right-linear: q(hx, Z), p(Z, hy) with Z fresh.
	if z := edge.Args[1].Name; edge.Args[0].Name == hx &&
		recAtom.Args[0].Name == z && recAtom.Args[1].Name == hy &&
		z != hx && z != hy {
		shape.rightLinear = true
		return shape, true
	}
	// Left-linear: p(hx, Z), q(Z, hy) with Z fresh.
	if z := recAtom.Args[1].Name; recAtom.Args[0].Name == hx &&
		edge.Args[0].Name == z && edge.Args[1].Name == hy &&
		z != hx && z != hy {
		return shape, true
	}
	return nil, false
}

// tcRun is the state of one evaluation (or maintenance pass) on the kernel.
// Every distinct answer lands in answers, which doubles as the dedup table;
// a fresh one counts as derived and is shown to the sink.
type tcRun struct {
	edges, exit, answers *storage.Relation
	pred                 string
	rightLinear          bool
	st                   Stats
	rs                   roundSink
	opts                 Opts
	snk                  sink

	// The anchor of the sweep. The BFS follows edges from column bc (0 when
	// the first argument is bound — it takes precedence — else 1) to the
	// other one. With eJoin the sweep starts at the constant c and each
	// visited value z answers through its exit tuples (right-linear from the
	// front, left-linear from the back: p(x, y) ⟺ x →q* z ∧ E(z, y), resp.
	// E(x, z) ∧ z →q* y); otherwise the exit tuples matching c supply the
	// seeds and each visited value v answers (c, v) itself. both filters on
	// the second constant c1.
	bc    int
	c, c1 storage.Value
	eJoin bool
	both  bool
	buf   [2]storage.Value
}

// bind resolves the query's constants and fixes the sweep's anchor. ok is
// false when a constant was never interned — no tuple can match. The query
// binds at least one argument: Plan.over routes the all-free one away.
func (r *tcRun) bind(q ast.Query, syms *storage.Symbols) (ok bool) {
	var b [2]bool
	var c [2]storage.Value
	for i, t := range q.Atom.Args {
		if b[i] = !t.IsVar(); b[i] {
			if c[i], ok = syms.Lookup(t.Name); !ok {
				return false
			}
		}
	}
	if !b[0] {
		r.bc = 1
	}
	r.c, r.c1, r.both = c[r.bc], c[1], b[0] && b[1]
	r.eJoin = r.rightLinear == (r.bc == 0)
	return true
}

// tcEvalAux runs a bound query on the kernel, additionally returning the
// maintenance state: the BFS visited set of a materialized sweep. A nil set
// (the early return for constants the symbol table has never seen, or a
// stream) tells the maintenance pass to recompute instead.
//
// With a streaming sink each answer is emitted the moment its BFS level
// derives it, and — the goal-directed win — a fully bound tc(a, b)? walks
// outward from a and ends with errStreamStop at the FIRST frontier value
// proving the answer, never finishing the closure. Without one the sweep
// covers the complete closure before answering, because maintenance
// restarts from the complete visited set.
func tcEvalAux(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database, opts Opts, snk sink) (*storage.Relation, *storage.ValueSet, Stats, error) {
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != 2 || q.Atom.Args[0].IsVar() && q.Atom.Args[1].IsVar() {
		return nil, nil, Stats{}, fmt.Errorf("eval: query %v does not bind an argument of %s/2", q, sys.Pred())
	}
	exitRel, err := shape.exitOf(db)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	edges := db.Rel(shape.edgePred)
	if edges != nil && edges.Arity() != 2 {
		return nil, nil, Stats{}, fmt.Errorf("eval: edge relation %s has arity %d, want 2", shape.edgePred, edges.Arity())
	}
	fix := opts.parent().Child("fixpoint").SetStr("engine", "tc-frontier")
	if snk.emit != nil {
		fix.SetStr("mode", "stream")
	}
	defer fix.End()
	r := &tcRun{edges: edges, exit: exitRel, answers: storage.NewRelation(2), pred: q.Atom.Pred, rightLinear: shape.rightLinear,
		opts: opts, snk: snk}
	st := &r.st
	r.rs = newRoundSink(st, opts, fix)
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		r.rs.stratumDone(st.Rounds)
		flushRels(opts, st, r.answers)
	}()
	if !r.bind(q, db.Syms) {
		return r.answers, nil, *st, nil
	}
	seeds := r.seeds()
	visited := storage.NewValueSet(len(seeds))
	var aux *storage.ValueSet
	switch {
	case snk.emit == nil:
		aux = visited
		if err = r.bfs(seeds, visited, nil); err == nil {
			visited.Each(r.contribute)
		}
	case r.both:
		// Goal-directed point query: probe each newly reached value for the
		// single exit tuple (resp. the target itself). The first hit IS the
		// complete answer set — stop the sweep right there.
		probe := storage.Tuple{0, r.c1}
		found := false
		err = r.bfs(seeds, visited, func(v storage.Value) bool {
			st.Facts++
			if r.eJoin {
				probe[0] = v
				found = exitRel.Contains(probe)
			} else {
				found = v == r.c1
			}
			return !found
		})
		if err == nil || err == errStreamStop {
			if found {
				r.buf[0], r.buf[1] = r.c, r.c1
				r.add(r.buf[:])
			}
			err = errStreamStop
		}
	default:
		err = r.bfs(seeds, visited, r.contribute)
	}
	if err != nil && err != errStreamStop {
		return nil, nil, *st, err
	}
	return r.answers, aux, *st, err
}

// add inserts the derivation t into the answers. A fresh tuple counts as
// derived and is shown to the sink; false means the sink's consumer stopped.
func (r *tcRun) add(t storage.Tuple) bool {
	if !r.answers.Insert(t) {
		return true
	}
	r.st.Derived++
	return r.snk.fresh(r.pred, r.answers.At(r.answers.Len()-1))
}

// seeds returns the values the sweep starts from.
func (r *tcRun) seeds() []storage.Value {
	if r.eJoin {
		return []storage.Value{r.c}
	}
	var seeds []storage.Value
	r.exit.EachCol(r.bc, r.c, func(t storage.Tuple) bool {
		seeds = append(seeds, t[1-r.bc])
		return true
	})
	return seeds
}

// contribute adds the answers a visited value stands for; it is the bfs
// visit callback of the streamed and maintained sweeps.
func (r *tcRun) contribute(v storage.Value) bool {
	if !r.eJoin {
		r.st.Facts++
		return r.answer(v)
	}
	ok := true
	r.exit.EachCol(r.bc, v, func(t storage.Tuple) bool {
		r.st.Facts++
		ok = r.answer(t[1-r.bc])
		return ok
	})
	return ok
}

// answer adds the pair of the anchor constant and w, unless the query's
// second constant rules it out.
func (r *tcRun) answer(w storage.Value) bool {
	if r.both && w != r.c1 {
		return true
	}
	r.buf[r.bc], r.buf[1-r.bc] = r.c, w
	return r.add(r.buf[:])
}

// bfs sweeps breadth-first from the seeds not yet in visited (a
// pre-populated set restarts an earlier sweep: maintenance), following edge
// tuples from column bc to the other one. Every value entering the visited
// set, seeds included, is handed to visit (when non-nil) before its edges
// are expanded; visit returning false ends the sweep with errStreamStop.
// Each BFS level counts as one round, each edge traversal as one attempted
// fact. The visited set is a word-hashed storage.ValueSet, so the sweep
// allocates only for set growth and the frontier slices.
func (r *tcRun) bfs(seeds []storage.Value, visited *storage.ValueSet, visit func(storage.Value) bool) error {
	st := &r.st
	frontier := make([]storage.Value, 0, len(seeds))
	for _, v := range seeds {
		if visited.Add(v) {
			if visit != nil && !visit(v) {
				return errStreamStop
			}
			frontier = append(frontier, v)
		}
	}
	if r.edges == nil {
		if len(frontier) > 0 {
			st.Rounds++
			r.rs.begin()
			r.rs.end(RoundStats{Round: st.Rounds, Delta: len(frontier)})
		}
		return nil
	}
	for len(frontier) > 0 {
		if r.opts.canceled() {
			return fmt.Errorf("tc-frontier bfs: %w", ErrCanceled)
		}
		st.Rounds++
		r.rs.begin()
		attempted, stopped := 0, false
		var next []storage.Value
		for _, v := range frontier {
			r.edges.EachCol(r.bc, v, func(t storage.Tuple) bool {
				attempted++
				if w := t[1-r.bc]; visited.Add(w) {
					if visit != nil && !visit(w) {
						stopped = true
						return false
					}
					next = append(next, w)
				}
				return true
			})
			if stopped {
				break
			}
		}
		st.Facts += attempted
		r.rs.end(RoundStats{Round: st.Rounds, Delta: len(frontier), Derived: len(next), Attempted: attempted})
		switch {
		case stopped:
			return errStreamStop
		case r.snk.over(st):
			return errOverBudget
		}
		frontier = next
	}
	return nil
}
