package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/storage"
)

// StableEval evaluates a query over a strongly stable system (§4.1: the
// I-graph consists of disjoint unit cycles) with the paper's compiled plan:
// every cycle is evaluated independently — bound positions push the query
// constant down their cycle's σ-chain, unbound positions chain exit values
// back up — and the per-depth results are combined with the exit relation.
// Keeping cycles independent avoids the cross-product of frontier states
// that the generic evaluator would enumerate.
type StableEval struct {
	sys   *ast.RecursiveSystem
	res   *classify.Result
	db    *storage.Database
	n     int
	exit  *storage.Relation
	comps []posComponent
	// trivialConj is the conjunction of atoms in components with no
	// directed edge: a pure existence check, identical at every expansion.
	trivialConj *Conj
}

// posComponent is the per-position cycle machinery.
type posComponent struct {
	headVar, bodyVar   string
	conj               *Conj // atoms of this component; nil when none (pure self-loop)
	headSlot, bodySlot int
	selfLoop           bool
}

// NewStableEval prepares the per-cycle machinery. It fails unless the
// classification is strongly stable.
func NewStableEval(sys *ast.RecursiveSystem, res *classify.Result, db *storage.Database) (*StableEval, error) {
	if !res.Stable {
		return nil, fmt.Errorf("eval: StableEval requires a strongly stable formula, got class %s", res.Class.Code())
	}
	n := sys.Arity()
	exitRel, err := MaterializeExit(sys, db)
	if err != nil {
		return nil, err
	}
	rule := sys.Recursive
	recAtom, _ := rule.RecursiveAtom()

	// Partition the non-recursive atoms by component.
	vertexComp := make(map[string]int)
	for ci, c := range res.Components {
		for _, v := range c.G.Vertices() {
			vertexComp[v] = ci
		}
	}
	atomsByComp := make(map[int][]ast.Atom)
	var trivialAtoms []ast.Atom
	for _, a := range rule.NonRecursiveAtoms() {
		vars := a.Vars()
		ci := -1
		if len(vars) > 0 {
			ci = vertexComp[vars[0]]
		}
		if ci >= 0 && res.Components[ci].Class != classify.ClassTrivial {
			atomsByComp[ci] = append(atomsByComp[ci], a)
		} else {
			trivialAtoms = append(trivialAtoms, a)
		}
	}

	se := &StableEval{sys: sys, res: res, db: db, n: n, exit: exitRel}
	if len(trivialAtoms) > 0 {
		se.trivialConj = CompileConj(db.Syms, trivialAtoms)
	}
	for i := 0; i < n; i++ {
		pc := posComponent{
			headVar: rule.Head.Args[i].Name,
			bodyVar: recAtom.Args[i].Name,
		}
		pc.selfLoop = pc.headVar == pc.bodyVar
		ci, ok := vertexComp[pc.headVar]
		if !ok {
			return nil, fmt.Errorf("eval: head variable %s missing from I-graph", pc.headVar)
		}
		if atoms := atomsByComp[ci]; len(atoms) > 0 {
			pc.conj = CompileConj(db.Syms, atoms)
			pc.headSlot = pc.conj.VarID(pc.headVar)
			pc.bodySlot = pc.conj.VarID(pc.bodyVar)
		}
		se.comps = append(se.comps, pc)
	}
	return se, nil
}

// valueSet is a deduplicated set of single values.
type valueSet map[storage.Value]struct{}

func (s valueSet) sortedKey() string {
	vals := make([]int, 0, len(s))
	for v := range s {
		vals = append(vals, int(v))
	}
	sort.Ints(vals)
	var b strings.Builder
	b.Grow(8 * len(vals))
	for _, v := range vals {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// down applies one σ-chain step from head-side values to body-side values.
func (pc *posComponent) down(rels RelFunc, in valueSet) valueSet {
	out := make(valueSet)
	if pc.conj == nil {
		// Pure self-loop: identity.
		for v := range in {
			out[v] = struct{}{}
		}
		return out
	}
	for v := range in {
		binding := pc.conj.NewBinding()
		if pc.headSlot >= 0 {
			binding[pc.headSlot] = v
		}
		pc.conj.Eval(rels, binding, func(b []storage.Value) bool {
			if pc.bodySlot >= 0 {
				out[b[pc.bodySlot]] = struct{}{}
			} else {
				out[v] = struct{}{}
			}
			return true
		})
	}
	return out
}

// up applies one chain step from body-side values to head-side values,
// returning the mapping as pairs.
func (pc *posComponent) up(rels RelFunc, in valueSet) map[storage.Value]valueSet {
	out := make(map[storage.Value]valueSet)
	add := func(from, to storage.Value) {
		s, ok := out[from]
		if !ok {
			s = make(valueSet)
			out[from] = s
		}
		s[to] = struct{}{}
	}
	if pc.conj == nil {
		for v := range in {
			add(v, v)
		}
		return out
	}
	for v := range in {
		binding := pc.conj.NewBinding()
		if pc.bodySlot >= 0 {
			binding[pc.bodySlot] = v
		}
		pc.conj.Eval(rels, binding, func(b []storage.Value) bool {
			if pc.headSlot >= 0 {
				add(v, b[pc.headSlot])
			} else {
				add(v, v)
			}
			return true
		})
	}
	return out
}

// pairRel maps an exit-side value to the head-side values reachable by k up
// steps: the paper's upward chain from the exit relation (e.g. C^k applied
// to E's third column in the plan for statement s3).
type pairRel map[storage.Value]valueSet

func (p pairRel) sortedKey() string {
	froms := make([]int, 0, len(p))
	for v := range p {
		froms = append(froms, int(v))
	}
	sort.Ints(froms)
	var b strings.Builder
	for _, f := range froms {
		b.WriteString(strconv.Itoa(f))
		b.WriteByte(':')
		b.WriteString(p[storage.Value(f)].sortedKey())
		b.WriteByte(';')
	}
	return b.String()
}

// AnswerOpts runs the stable compiled plan for the query: each chain depth
// becomes one round under a "fixpoint" span tagged engine=stable.
func (se *StableEval) AnswerOpts(q ast.Query, opts Opts) (*storage.Relation, Stats, error) {
	n := se.n
	if q.Atom.Pred != se.sys.Pred() || q.Atom.Arity() != n {
		return nil, Stats{}, fmt.Errorf("eval: query %v does not match predicate %s/%d", q, se.sys.Pred(), n)
	}
	var st Stats
	answers := storage.NewRelation(n)
	rels := DBRels(se.db)
	fix := opts.parent().Child("fixpoint").SetStr("engine", "stable")
	defer fix.End()
	sink := newRoundSink(&st, opts, fix)
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		sink.stratumDone(st.Rounds)
		// The exit relation is shared across Answer calls on the same
		// StableEval, so only the per-call answers relation is flushed.
		flushRels(opts, &st, answers)
	}()

	var boundPos, freePos []int
	consts := make(storage.Tuple, n)
	for i, t := range q.Atom.Args {
		if t.IsVar() {
			freePos = append(freePos, i)
			continue
		}
		v, ok := se.db.Syms.Lookup(t.Name)
		if !ok {
			return answers, st, nil
		}
		consts[i] = v
		boundPos = append(boundPos, i)
	}

	// Depth 0: σ_query(E).
	st.Rounds++
	sink.begin()
	bound := make([]bool, n)
	for _, p := range boundPos {
		bound[p] = true
	}
	se.exit.EachMatch(bound, consts, func(t storage.Tuple) bool {
		st.Facts++
		if answers.Insert(t) {
			st.Derived++
		}
		return true
	})
	sink.end(RoundStats{Round: st.Rounds, Derived: st.Derived, Attempted: st.Facts})

	// The trivial-component existence check is the same at every depth.
	if se.trivialConj != nil {
		satisfiable := false
		se.trivialConj.Eval(rels, se.trivialConj.NewBinding(), func([]storage.Value) bool {
			satisfiable = true
			return false
		})
		if !satisfiable {
			return answers, st, nil
		}
	}

	// Per-position frontiers. Positions whose cycle is a pure self-loop
	// (the identity chain) never change: their frontier is the constant
	// (bound) or the exit value itself (free), so they are excluded from
	// the advancing state.
	D := make(map[int]valueSet) // bound positions: σ-chain frontier
	W := make(map[int]pairRel)  // free positions: up-chains seeded at E
	var movingBound, movingFree []int
	for _, p := range boundPos {
		D[p] = valueSet{consts[p]: {}}
		if se.comps[p].conj != nil {
			movingBound = append(movingBound, p)
		}
	}
	for _, p := range freePos {
		if se.comps[p].conj == nil {
			continue // identity: exit value flows through unchanged
		}
		movingFree = append(movingFree, p)
		seed := make(valueSet)
		se.exit.Each(func(t storage.Tuple) bool {
			seed[t[p]] = struct{}{}
			return true
		})
		// W at depth 0 is the identity; it is advanced before first use.
		id := make(pairRel, len(seed))
		for v := range seed {
			id[v] = valueSet{v: {}}
		}
		W[p] = id
	}

	// With a single moving cycle the union over depths depends only on
	// membership, not on depth alignment (the paper's ∪_k σA^k is plain
	// reachability), so the iterate can advance a delta frontier and stop
	// when it dries up. With several moving cycles the per-depth alignment
	// matters and termination falls back to state repetition.
	singleMoving := len(movingBound)+len(movingFree) == 1
	var seenVals valueSet
	var seenPairs map[storage.Value]valueSet
	if singleMoving {
		if len(movingBound) == 1 {
			seenVals = valueSet{consts[movingBound[0]]: {}}
		} else {
			p := movingFree[0]
			seenPairs = make(map[storage.Value]valueSet, len(W[p]))
			for e, hs := range W[p] {
				cp := make(valueSet, len(hs))
				for h := range hs {
					cp[h] = struct{}{}
				}
				seenPairs[e] = cp
			}
		}
	}

	seenStates := make(map[string]bool)
	stateKey := func() string {
		var b strings.Builder
		for _, p := range movingBound {
			fmt.Fprintf(&b, "D%d=", p)
			b.WriteString(D[p].sortedKey())
			b.WriteByte('|')
		}
		for _, p := range movingFree {
			fmt.Fprintf(&b, "W%d=", p)
			b.WriteString(W[p].sortedKey())
			b.WriteByte('|')
		}
		return b.String()
	}
	if !singleMoving {
		seenStates[stateKey()] = true
	}

	nextFree := func(p int) pairRel {
		nw := make(pairRel, len(W[p]))
		for e, mids := range W[p] {
			step := se.comps[p].up(rels, mids)
			acc := make(valueSet)
			for mid := range mids {
				for h := range step[mid] {
					acc[h] = struct{}{}
				}
			}
			if len(acc) > 0 {
				nw[e] = acc
			}
		}
		return nw
	}

	facts0, derived0 := 0, 0
	endRound := func() {
		sink.end(RoundStats{Round: st.Rounds, Derived: st.Derived - derived0, Attempted: st.Facts - facts0})
	}
	for {
		st.Rounds++
		sink.begin()
		facts0, derived0 = st.Facts, st.Derived
		// Advance every cycle one step; each reads only its own frontier.
		for _, p := range movingBound {
			D[p] = se.comps[p].down(rels, D[p])
		}
		for _, p := range movingFree {
			W[p] = nextFree(p)
		}
		for _, p := range movingBound {
			if len(D[p]) == 0 {
				endRound()
				return answers, st, nil
			}
		}

		if singleMoving {
			// Restrict to the genuinely new frontier; stop when it dries up.
			if len(movingBound) == 1 {
				p := movingBound[0]
				delta := make(valueSet)
				for v := range D[p] {
					if _, ok := seenVals[v]; !ok {
						delta[v] = struct{}{}
						seenVals[v] = struct{}{}
					}
				}
				if len(delta) == 0 {
					endRound()
					return answers, st, nil
				}
				D[p] = delta
			} else {
				p := movingFree[0]
				delta := make(pairRel)
				for e, hs := range W[p] {
					for h := range hs {
						if _, ok := seenPairs[e][h]; ok {
							continue
						}
						if seenPairs[e] == nil {
							seenPairs[e] = make(valueSet)
						}
						seenPairs[e][h] = struct{}{}
						if delta[e] == nil {
							delta[e] = make(valueSet)
						}
						delta[e][h] = struct{}{}
					}
				}
				if len(delta) == 0 {
					endRound()
					return answers, st, nil
				}
				W[p] = delta
			}
		}

		// Combine with E at this depth.
		se.emitDepth(answers, &st, boundPos, freePos, consts, D, W)

		if !singleMoving {
			k := stateKey()
			if seenStates[k] {
				endRound()
				return answers, st, nil
			}
			seenStates[k] = true
		}
		endRound()
	}
}

// emitDepth joins the exit relation with the current per-cycle frontiers.
func (se *StableEval) emitDepth(answers *storage.Relation, st *Stats, boundPos, freePos []int, consts storage.Tuple, D map[int]valueSet, W map[int]pairRel) {
	// Drive the scan from the most selective bound frontier when possible.
	var candidates []int
	if len(boundPos) > 0 {
		best := boundPos[0]
		for _, p := range boundPos[1:] {
			if len(D[p]) < len(D[best]) {
				best = p
			}
		}
		for v := range D[best] {
			candidates = append(candidates, int(v))
		}
		sort.Ints(candidates)
		for _, vi := range candidates {
			for _, pos := range se.exit.LookupCol(best, storage.Value(vi)) {
				se.emitTuple(answers, st, se.exit.Tuples()[pos], boundPos, freePos, consts, D, W)
			}
		}
		return
	}
	se.exit.Each(func(t storage.Tuple) bool {
		se.emitTuple(answers, st, t, boundPos, freePos, consts, D, W)
		return true
	})
}

func (se *StableEval) emitTuple(answers *storage.Relation, st *Stats, t storage.Tuple, boundPos, freePos []int, consts storage.Tuple, D map[int]valueSet, W map[int]pairRel) {
	for _, p := range boundPos {
		if _, ok := D[p][t[p]]; !ok {
			return
		}
	}
	// Cross product of the up-chain images of the free positions.
	out := make(storage.Tuple, se.n)
	for _, p := range boundPos {
		out[p] = consts[p]
	}
	var rec func(fi int)
	rec = func(fi int) {
		if fi == len(freePos) {
			st.Facts++
			if answers.Insert(out) {
				st.Derived++
			}
			return
		}
		p := freePos[fi]
		if se.comps[p].conj == nil {
			// Identity chain: the exit value is the answer value.
			out[p] = t[p]
			rec(fi + 1)
			return
		}
		heads, ok := W[p][t[p]]
		if !ok {
			return
		}
		for h := range heads {
			out[p] = h
			rec(fi + 1)
		}
	}
	rec(0)
}
