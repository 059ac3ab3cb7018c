// Package eval implements the query-evaluation engines of the reproduction:
//
//   - bottom-up naive fixpoint evaluation (naive.go, the independent
//     reference oracle),
//   - the round driver (driver.go): the one seed-plus-delta-rounds loop
//     behind semi-naive evaluation (one worker), the parallel engine,
//     streaming and incremental maintenance, with per-round metrics
//     (Stats.Trace),
//   - the transitive-closure frontier kernel (tc.go) and the bounded
//     expansion union (bounded.go) the auto planner compiles to,
//   - a magic-sets baseline specialized to the paper's linear systems,
//   - the generic compiled expansion evaluator driven by resolution-graph
//     state (the uniform strategy of the paper's §6–§9 examples),
//   - the class-specific stable-cycle evaluator (§4.1), the bounded
//     evaluator (§5, §7) and the transformation-based evaluator (§4.2–§4.4).
//
// All engines answer the same (system, query, database) triple and are
// cross-checked against each other in the tests.
//
// The hot path is allocation-lean by construction: conjunction enumeration
// keeps per-atom scratch buffers in the enumeration state (no per-step
// allocations), derived tuples land in the storage layer's columnar arena
// through word-hashed dedup (no string keys), and index probes hit
// CSR-style posting arrays.
package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Unbound marks an unassigned variable in a binding vector. Interned values
// are non-negative, so −1 is free.
const Unbound storage.Value = -1

// argSpec is a compiled atom argument: either a variable slot or a constant.
type argSpec struct {
	isVar bool
	varID int
	val   storage.Value
}

// compiledAtom is an atom whose variables are resolved to slots and whose
// constants are interned.
type compiledAtom struct {
	pred string
	args []argSpec
	// idx is the atom's position in the source body, used by delta overrides.
	idx int
	// neg marks a negated literal, evaluated as an anti-join once all its
	// variables are bound (stratified-negation substrate extension).
	neg bool
}

// Conj is a compiled conjunctive body sharing one variable slot space.
type Conj struct {
	atoms    []compiledAtom
	varNames []string
	varIdx   map[string]int
}

// CompileConj compiles the atoms against the symbol table (constants are
// interned so they compare by Value).
func CompileConj(syms *storage.Symbols, atoms []ast.Atom) *Conj {
	c := &Conj{varIdx: make(map[string]int)}
	for i, a := range atoms {
		ca := compiledAtom{pred: a.Pred, idx: i, neg: a.Neg, args: make([]argSpec, len(a.Args))}
		for j, t := range a.Args {
			if t.IsVar() {
				id, ok := c.varIdx[t.Name]
				if !ok {
					id = len(c.varNames)
					c.varIdx[t.Name] = id
					c.varNames = append(c.varNames, t.Name)
				}
				ca.args[j] = argSpec{isVar: true, varID: id}
			} else {
				ca.args[j] = argSpec{val: syms.Intern(t.Name)}
			}
		}
		c.atoms = append(c.atoms, ca)
	}
	return c
}

// NumVars returns the number of variable slots.
func (c *Conj) NumVars() int { return len(c.varNames) }

// VarID returns the slot of the named variable, or −1.
func (c *Conj) VarID(name string) int {
	if id, ok := c.varIdx[name]; ok {
		return id
	}
	return -1
}

// NewBinding returns an all-Unbound binding vector for the conjunction.
func (c *Conj) NewBinding() []storage.Value {
	b := make([]storage.Value, len(c.varNames))
	for i := range b {
		b[i] = Unbound
	}
	return b
}

// RelFunc resolves the relation an atom reads from; returning nil means the
// relation is empty. The atom's body index is passed so that semi-naive
// evaluation can substitute a delta relation for one occurrence.
type RelFunc func(pred string, atomIdx int) *storage.Relation

// DBRels adapts a database to a RelFunc.
func DBRels(db *storage.Database) RelFunc {
	return func(pred string, _ int) *storage.Relation { return db.Rel(pred) }
}

// Eval enumerates all satisfying bindings of the conjunction, starting from
// the initial binding (which is mutated during the search and restored).
// Atoms are ordered dynamically: at each step the engine picks the remaining
// atom with the most bound arguments, breaking ties toward the smaller
// relation — the paper's "selections before joins" principle. yield may
// return false to stop early. Eval reports whether enumeration ran to
// completion (true) or was stopped by yield (false).
func (c *Conj) Eval(rels RelFunc, binding []storage.Value, yield func([]storage.Value) bool) bool {
	return c.EvalWith(rels, binding, nil, nil, yield)
}

// EvalWith is Eval with an optional compiled join order and an optional
// visit counter. A non-nil order must be a permutation of the atom indexes
// that keeps every negated literal after the positive atoms binding its
// variables (the cost planner guarantees this); atoms are then taken in
// that order with no per-step selection scan. A nil order falls back to the
// dynamic greedy ordering. When visits is non-nil it is incremented once
// per tuple the enumeration pulls from an index posting or scan — the
// intermediate-result work the cost model estimates. The identity order is
// strict source order, the ablation baseline of the paper's evaluation
// principle (BenchmarkAblationJoinOrder).
func (c *Conj) EvalWith(rels RelFunc, binding []storage.Value, order []int, visits *int64, yield func([]storage.Value) bool) bool {
	e := enumState{
		c: c, rels: rels, binding: binding, yield: yield,
		done:    make([]bool, len(c.atoms)),
		scratch: make([]atomScratch, len(c.atoms)),
		order:   order, visits: visits,
	}
	return e.step(len(c.atoms))
}

// boundArgs counts the atom's arguments that are constants or bound
// variables under the current binding.
func boundArgs(binding []storage.Value, a compiledAtom) int {
	bound := 0
	for _, s := range a.args {
		if !s.isVar || binding[s.varID] != Unbound {
			bound++
		}
	}
	return bound
}

// selectDynamic picks the next un-done atom greedily: the most-bound atom,
// breaking ties toward the smallest expected enumeration. The tie-break uses
// MatchCount — the bound value's actual index bucket size — rather than the
// full Relation.Len(), so a large relation probed on a selective bound
// column correctly beats a small relation that must be scanned (on skewed
// data Len() alone mis-orders exactly the joins where order matters most).
// Negated literals wait until fully bound; once bound they are constant-time
// filters and are applied immediately.
func (e *enumState) selectDynamic() int {
	c, binding := e.c, e.binding
	best, bestBound, bestSize := -1, -1, -1
	for i := range c.atoms {
		if e.done[i] {
			continue
		}
		a := &c.atoms[i]
		bound := boundArgs(binding, *a)
		if a.neg {
			if bound < len(a.args) {
				continue // anti-joins wait until fully bound
			}
			return i
		}
		rel := e.rels(a.pred, a.idx)
		size := 0
		if rel != nil {
			if bound > 0 {
				sc := e.atomScratch(i, len(a.args))
				for j, s := range a.args {
					switch {
					case !s.isVar:
						sc.bound[j] = true
						sc.vals[j] = s.val
					case binding[s.varID] != Unbound:
						sc.bound[j] = true
						sc.vals[j] = binding[s.varID]
					default:
						sc.bound[j] = false
					}
				}
				size = rel.MatchCount(sc.bound, sc.vals)
			} else {
				size = rel.Len()
			}
		}
		if best == -1 || bound > bestBound || (bound == bestBound && size < bestSize) {
			best, bestBound, bestSize = i, bound, size
		}
	}
	return best
}

// atomScratch holds one atom's per-enumeration buffers. Each atom is done
// at most once along any search path, so its scratch is never live at two
// recursion depths at the same time — the buffers are allocated once per
// enumState instead of once per step invocation, which used to dominate
// the fixpoint engines' allocation profile.
type atomScratch struct {
	bound    []bool
	vals     storage.Tuple
	assigned []int
}

// enumState is the backtracking search over the atoms not yet marked done.
// It is a plain struct (rather than a recursive closure) so that callers
// driving many enumerations over the same conjunction — the parallel
// engine's per-delta-tuple seeding — pay its setup once per task, not once
// per tuple.
type enumState struct {
	c       *Conj
	rels    RelFunc
	binding []storage.Value
	yield   func([]storage.Value) bool
	done    []bool
	scratch []atomScratch
	// order, when non-nil, is the compiled join order: atom order[k] runs at
	// depth k and no per-step selection scan happens. len(order) must equal
	// len(c.atoms); seeded enumerations use orders whose first entry is the
	// seed atom.
	order []int
	// visits, when non-nil, counts tuples pulled from index postings or
	// scans across the enumeration — the planner's cost unit.
	visits *int64
}

// atomScratch returns the (lazily sized) scratch buffers of atom i.
func (e *enumState) atomScratch(i, nargs int) *atomScratch {
	s := &e.scratch[i]
	if cap(s.vals) < nargs {
		s.bound = make([]bool, nargs)
		s.vals = make(storage.Tuple, nargs)
	}
	s.bound = s.bound[:nargs]
	s.vals = s.vals[:nargs]
	return s
}

func (e *enumState) step(remaining int) bool {
	if remaining == 0 {
		return e.yield(e.binding)
	}
	c, binding := e.c, e.binding
	var best int
	if e.order != nil {
		best = e.order[len(e.order)-remaining]
	} else {
		best = e.selectDynamic()
	}
	if best == -1 {
		// Only negated literals with unbound variables remain: the rule
		// failed the safety check upstream.
		panic("eval: unsafe negation reached the evaluator")
	}
	a := c.atoms[best]
	sc := e.atomScratch(best, len(a.args))
	if a.neg {
		rel := e.rels(a.pred, a.idx)
		if rel != nil && rel.Arity() != len(a.args) {
			panic(fmt.Sprintf("eval: negated literal %s/%d read against relation of arity %d",
				a.pred, len(a.args), rel.Arity()))
		}
		vals := sc.vals
		for j, s := range a.args {
			if s.isVar {
				vals[j] = binding[s.varID]
				if vals[j] == Unbound {
					// Only a compiled order can route here early; the
					// planner's placement constraint makes it a bug.
					panic(fmt.Sprintf("eval: negated literal %s/%d reached with unbound variable", a.pred, len(a.args)))
				}
			} else {
				vals[j] = s.val
			}
		}
		if rel != nil && rel.Contains(vals) {
			return true // literal falsified: this branch yields nothing
		}
		e.done[best] = true
		cont := e.step(remaining - 1)
		e.done[best] = false
		return cont
	}
	rel := e.rels(a.pred, a.idx)
	if rel == nil || rel.Len() == 0 {
		return true // empty relation: no matches, enumeration complete
	}
	if rel.Arity() != len(a.args) {
		panic(fmt.Sprintf("eval: literal %s/%d read against relation of arity %d",
			a.pred, len(a.args), rel.Arity()))
	}
	e.done[best] = true
	defer func() { e.done[best] = false }()

	boundCols, vals := sc.bound, sc.vals
	for j, s := range a.args {
		switch {
		case !s.isVar:
			boundCols[j] = true
			vals[j] = s.val
		case binding[s.varID] != Unbound:
			boundCols[j] = true
			vals[j] = binding[s.varID]
		default:
			boundCols[j] = false
		}
	}
	cont := true
	rel.EachMatch(boundCols, vals, func(t storage.Tuple) bool {
		// Bind free columns; handle repeated free variables in the atom.
		// The assigned buffer is safe to reuse: EachMatch invokes this
		// callback sequentially and recursion only touches other atoms'
		// scratch.
		if e.visits != nil {
			*e.visits++
		}
		sc.assigned = sc.assigned[:0]
		okTuple := true
		for j, s := range a.args {
			if boundCols[j] || !s.isVar {
				continue
			}
			if binding[s.varID] == Unbound {
				binding[s.varID] = t[j]
				sc.assigned = append(sc.assigned, s.varID)
			} else if binding[s.varID] != t[j] {
				okTuple = false
				break
			}
		}
		if okTuple {
			cont = e.step(remaining - 1)
		}
		for _, id := range sc.assigned {
			binding[id] = Unbound
		}
		return cont
	})
	return cont
}

// seeder drives repeated seeded enumerations over one conjunction, reusing
// the search scratch (done flags, assigned-slot buffer) across calls. The
// parallel engine creates one per task and feeds it every delta tuple of the
// task's chunk.
type seeder struct {
	e        enumState
	assigned []int
}

func newSeeder(c *Conj, rels RelFunc, binding []storage.Value, yield func([]storage.Value) bool) *seeder {
	return newSeederWith(c, rels, binding, nil, nil, yield)
}

// newSeederWith is newSeeder with a compiled join order and a visit counter
// (both optional, see EvalWith). A non-nil order must start with the seed
// atom passed to every subsequent seed call — the planner compiles one
// order per seedable atom.
func newSeederWith(c *Conj, rels RelFunc, binding []storage.Value, order []int, visits *int64, yield func([]storage.Value) bool) *seeder {
	return &seeder{e: enumState{
		c: c, rels: rels, binding: binding, yield: yield,
		done:    make([]bool, len(c.atoms)),
		scratch: make([]atomScratch, len(c.atoms)),
		order:   order, visits: visits,
	}}
}

// seed enumerates the satisfying bindings of the conjunction with the
// positive atom at seedIdx pre-resolved to the single tuple: the atom's
// variables are bound from the tuple (constants and repeated variables are
// checked for consistency) and the search runs over the remaining atoms. The
// binding is mutated during the search and restored before returning.
func (s *seeder) seed(seedIdx int, seed storage.Tuple) bool {
	c, binding := s.e.c, s.e.binding
	if s.e.order != nil && s.e.order[0] != seedIdx {
		panic(fmt.Sprintf("eval: compiled order starts at atom %d, seeded at %d", s.e.order[0], seedIdx))
	}
	a := c.atoms[seedIdx]
	if a.neg {
		panic("eval: seeded atom must be positive")
	}
	if len(seed) != len(a.args) {
		panic(fmt.Sprintf("eval: seed arity %d for literal %s/%d", len(seed), a.pred, len(a.args)))
	}
	s.assigned = s.assigned[:0]
	ok := true
	for j, sp := range a.args {
		if !sp.isVar {
			if sp.val != seed[j] {
				ok = false
				break
			}
			continue
		}
		if binding[sp.varID] == Unbound {
			binding[sp.varID] = seed[j]
			s.assigned = append(s.assigned, sp.varID)
		} else if binding[sp.varID] != seed[j] {
			ok = false
			break
		}
	}
	cont := true
	if ok {
		s.e.done[seedIdx] = true
		cont = s.e.step(len(c.atoms) - 1)
		s.e.done[seedIdx] = false
	}
	for _, id := range s.assigned {
		binding[id] = Unbound
	}
	return cont
}

// EvalProject evaluates the conjunction and inserts, for each satisfying
// binding, the projection onto the given variable slots into out. Slots may
// be −1 to emit a fixed constant from fixed. Returns the number of new
// tuples inserted.
func (c *Conj) EvalProject(rels RelFunc, binding []storage.Value, slots []int, fixed storage.Tuple, out *storage.Relation) int {
	added := 0
	buf := make(storage.Tuple, len(slots))
	c.Eval(rels, binding, func(b []storage.Value) bool {
		project(buf, slots, fixed, b)
		if out.Insert(buf) {
			added++
		}
		return true
	})
	return added
}

// project fills buf with a head tuple: slot i reads binding b at slots[i], or
// the pinned value fixed[i] when slots[i] is −1.
func project(buf storage.Tuple, slots []int, fixed storage.Tuple, b []storage.Value) {
	for i, s := range slots {
		if s >= 0 {
			buf[i] = b[s]
		} else {
			buf[i] = fixed[i]
		}
	}
}

// headSlots maps the head atom's arguments to conjunction slots: for a
// variable argument its slot id, for a constant −1 with the constant placed
// in the fixed tuple.
func headSlots(c *Conj, syms *storage.Symbols, head ast.Atom) (slots []int, fixed storage.Tuple, err error) {
	slots = make([]int, len(head.Args))
	fixed = make(storage.Tuple, len(head.Args))
	for i, t := range head.Args {
		if t.IsVar() {
			id := c.VarID(t.Name)
			if id < 0 {
				return nil, nil, fmt.Errorf("eval: head variable %s not bound by body", t.Name)
			}
			slots[i] = id
		} else {
			slots[i] = -1
			fixed[i] = syms.Intern(t.Name)
		}
	}
	return slots, fixed, nil
}
