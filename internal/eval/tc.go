package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// The frontier-BFS kernel for unit-rotational (transitive-closure-shaped)
// rules. A rule of the form
//
//	p(X, Y) :- q(X, Z), p(Z, Y).   (right-linear)
//	p(X, Y) :- p(X, Z), q(Z, Y).   (left-linear)
//
// computes p = ∪_k q^k ∘ E (respectively ∪_k E ∘ q^k) over the exit
// relation E. Instead of running generic conjunction joins round after
// round, the kernel walks the q edge index directly: queries with a bound
// argument become a breadth-first reachability sweep over a value frontier
// (never touching the unreachable part of the graph), and the all-free
// query becomes a semi-naive relational compose that joins only the
// previous round's delta tuples against the edge index.

// tcShape records the detected orientation of a transitive-closure rule.
type tcShape struct {
	edgePred string
	// rightLinear: the edge literal precedes the recursive literal
	// (p = ∪ q^k ∘ E); otherwise left-linear (p = ∪ E ∘ q^k).
	rightLinear bool
	// exitPred names the stored predicate the exit relation E is when the
	// exit rules merely rename it (the one rule p(X, Y) :- e(X, Y)): the
	// kernel and its maintenance then read the database's own relation. Empty
	// when E has to be materialized from the exit rules.
	exitPred string
}

// exitOf returns the exit relation E over db and whether it is a private
// materialized copy (otherwise it is db's own relation, shared with every
// reader of db and never written).
func (s *tcShape) exitOf(sys *ast.RecursiveSystem, db *storage.Database) (exit *storage.Relation, private bool, err error) {
	if s.exitPred != "" {
		switch rel := db.Rel(s.exitPred); {
		case rel == nil:
			return storage.NewRelation(2), false, nil
		case rel.Arity() == 2:
			return rel, false, nil
		}
	}
	exit, err = MaterializeExit(sys, db)
	return exit, true, err
}

// joinCol is the delta column the compose joins on: 0 for the right-linear
// orientation (q ∘ Δ: new (x, y) from q(x, z), Δ(z, y)), 1 for the
// left-linear one (Δ ∘ q).
func (s *tcShape) joinCol() int {
	if s.rightLinear {
		return 0
	}
	return 1
}

// detectTC matches the recursive rule against the two transitive-closure
// orientations: binary head, a body of exactly one positive binary edge
// literal over a different predicate, and the chain variable linking the
// edge to the recursive literal. Head and recursive arguments are distinct
// variables by ValidateRecursive; the chain variable must be fresh.
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
	shape := &tcShape{edgePred: edge.Pred}
	if len(sys.Exits) == 1 {
		// p(X, Y) :- e(X, Y) with X, Y distinct variables: E is e itself.
		h, b := sys.Exits[0].Head, sys.Exits[0].Body
		if len(b) == 1 && !b[0].Neg && b[0].Pred != h.Pred && b[0].Arity() == 2 &&
			h.Args[0].IsVar() && h.Args[1].IsVar() && h.Args[0].Name != h.Args[1].Name &&
			b[0].Args[0] == h.Args[0] && b[0].Args[1] == h.Args[1] {
			shape.exitPred = b[0].Pred
		}
	}
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
	// jc is the shape's joinCol.
	jc   int
	st   Stats
	rs   roundSink
	opts Opts
	snk  sink

	// The anchor of a bound query's sweep. The BFS follows edges from
	// column bc (0 when the first argument is bound — it takes precedence —
	// else 1) to the other one. With eJoin the sweep starts at the
	// constant c and each visited value z answers through its exit tuples
	// (right-linear from the front, left-linear from the back: p(x, y) ⟺
	// x →q* z ∧ E(z, y), resp. E(x, z) ∧ z →q* y); otherwise the exit
	// tuples matching c supply the seeds and each visited value v answers
	// (c, v) itself. both filters on the second constant c1.
	bc    int
	c, c1 storage.Value
	eJoin bool
	both  bool
	buf   [2]storage.Value
}

// bind resolves the query's constants and fixes the sweep's anchor. bound is
// false for the all-free query; ok is false when a constant was never
// interned — no tuple can match.
func (r *tcRun) bind(q ast.Query, syms *storage.Symbols) (bound, ok bool) {
	var b [2]bool
	var c [2]storage.Value
	for i, t := range q.Atom.Args {
		if b[i] = !t.IsVar(); b[i] {
			if c[i], ok = syms.Lookup(t.Name); !ok {
				return false, false
			}
		}
	}
	if !b[0] && !b[1] {
		return false, true
	}
	if !b[0] {
		r.bc = 1
	}
	r.c, r.c1, r.both = c[r.bc], c[1], b[0] && b[1]
	r.eJoin = (r.jc == 0) == (r.bc == 0)
	return true, true
}

// tcEvalAux runs the query on the kernel, additionally returning the
// maintenance state: the exit relation when it had to be materialized
// (tcShape.exitOf) plus, for bound queries, the BFS visited set. A nil aux
// (the early return for constants the symbol table has never seen) tells the
// maintenance pass to recompute instead.
//
// With a streaming sink each answer is emitted the moment its BFS level (or
// compose round) derives it, and — the goal-directed win — a fully bound
// tc(a, b)? walks outward from a and ends with errStreamStop at the FIRST
// frontier value proving the answer, never finishing the closure. Without
// one the bound cases sweep the complete closure before answering, because
// maintenance restarts from the complete visited set.
func tcEvalAux(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database, opts Opts, snk sink) (*storage.Relation, *tcAux, Stats, error) {
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != 2 {
		return nil, nil, Stats{}, fmt.Errorf("eval: query %v does not match predicate %s/2", q, sys.Pred())
	}
	exitRel, private, err := shape.exitOf(sys, db)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	aux := &tcAux{}
	if private {
		aux.exit = exitRel
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
	r := &tcRun{edges: edges, exit: exitRel, answers: storage.NewRelation(2), pred: q.Atom.Pred, jc: shape.joinCol(),
		opts: opts, snk: snk}
	st := &r.st
	r.rs = newRoundSink(st, opts, fix)
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		r.rs.stratumDone(st.Rounds)
		flushRels(opts, st, r.answers, aux.exit)
	}()
	bound, ok := r.bind(q, db.Syms)
	if !ok {
		return r.answers, nil, *st, nil
	}
	if !bound {
		// All free: semi-naive compose seeded with E.
		var delta []storage.Tuple
		if delta, err = r.seedExit(); err == nil {
			err = r.compose(delta)
		}
	} else {
		seeds := r.seeds()
		visited := storage.NewValueSet(len(seeds))
		switch {
		case snk.emit == nil:
			aux.visited = visited
			if err = r.bfs(seeds, visited, nil); err == nil {
				visited.Each(r.contribute)
			}
		case r.both:
			// Goal-directed point query: probe each newly reached value for
			// the single exit tuple (resp. the target itself). The first hit
			// IS the complete answer set — stop the sweep right there.
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
	}
	if err != nil && err != errStreamStop {
		return nil, nil, *st, err
	}
	return r.answers, aux, *st, err
}

// add inserts the derivation t into the answers. A fresh tuple counts as
// derived, is shown to the sink and is returned as its arena-backed header
// (nil for a duplicate); ok is false when the sink's consumer stopped.
func (r *tcRun) add(t storage.Tuple) (fresh storage.Tuple, ok bool) {
	if !r.answers.Insert(t) {
		return nil, true
	}
	r.st.Derived++
	fresh = r.answers.At(r.answers.Len() - 1)
	return fresh, r.snk.fresh(r.pred, fresh)
}

// seeds returns the values a bound query's sweep starts from.
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
	_, ok := r.add(r.buf[:])
	return ok
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

// seedExit is the all-free query's seed round: the exit relation enters the
// answers single-threaded (it is one pass of inserts) and its fresh tuples
// are the first delta.
func (r *tcRun) seedExit() ([]storage.Tuple, error) {
	st := &r.st
	r.rs.begin()
	delta := make([]storage.Tuple, 0, r.exit.Len())
	ok := true
	r.exit.Each(func(t storage.Tuple) bool {
		st.Facts++
		var fresh storage.Tuple
		if fresh, ok = r.add(t); fresh != nil {
			delta = append(delta, fresh)
		}
		return ok
	})
	if len(delta) > 0 {
		st.Rounds++
	}
	r.rs.end(RoundStats{Round: st.Rounds, Derived: len(delta), Attempted: r.exit.Len()})
	if !ok {
		return nil, errStreamStop
	}
	return delta, nil
}

// compose closes the answers under the edge relation semi-naively: each
// round joins the previous round's delta against the edge index into a
// pooled buffer, prefiltering tuples already in the answers, and merges the
// buffer's fresh closure tuples into the answers as the next delta. Delta
// entries alias the answers relation's arena (At after a successful Insert),
// so no tuple is ever cloned.
func (r *tcRun) compose(delta []storage.Tuple) error {
	if r.edges == nil {
		return nil
	}
	st, jc := &r.st, r.jc
	var nt [2]storage.Value
	for len(delta) > 0 {
		if r.opts.canceled() {
			return fmt.Errorf("tc-frontier compose: %w", ErrCanceled)
		}
		st.Rounds++
		r.rs.begin()
		out := getTaskBuffer(2)
		attempted := 0
		for _, d := range delta {
			r.edges.EachCol(1-jc, d[jc], func(e storage.Tuple) bool {
				attempted++
				nt[jc], nt[1-jc] = e[jc], d[1-jc]
				if !r.answers.Contains(nt[:]) {
					out.Insert(nt[:])
				}
				return true
			})
		}
		var next []storage.Tuple
		ok := true
		out.Each(func(t storage.Tuple) bool {
			var fresh storage.Tuple
			if fresh, ok = r.add(t); fresh != nil {
				next = append(next, fresh)
			}
			return ok
		})
		taskBuffers.Put(out)
		st.Facts += attempted
		r.rs.end(RoundStats{Round: st.Rounds, Delta: len(delta), Derived: len(next), Attempted: attempted})
		switch {
		case !ok:
			return errStreamStop
		case r.snk.over(st):
			return errOverBudget
		}
		delta = next
	}
	return nil
}
