package eval

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// The generic compiled expansion evaluator. It is the uniform realization of
// the paper's query-evaluation principle (§1): push the query's selections
// into each expansion, join where possible, and fall back to retrieving the
// exit relation and combining by Cartesian product or existence checking.
// Operationally it enumerates "resolution states": at expansion depth k a
// state records which answer positions are already resolved and how the
// antecedent occurrence of the recursive predicate is instantiated. States
// are deduplicated, which both terminates the iteration (the state space is
// finite) and realizes the paper's observation that evaluation plans repeat
// with a fixed period.

// slotKind describes one frontier position of a state.
type slotKind uint8

const (
	// slotBound: the position carries a concrete value.
	slotBound slotKind = iota
	// slotLinked: the position is the (still open) answer position Link;
	// a value met here (by the next expansion or the exit join) resolves
	// that answer position.
	slotLinked
	// slotFree: the position is existential — its value does not influence
	// the answer tuple.
	slotFree
)

// frontierSlot is one position of the recursive literal in a state.
type frontierSlot struct {
	kind slotKind
	val  storage.Value // for slotBound
	link int           // for slotLinked
}

// expState is a resolution state: the partially resolved answer tuple
// (Unbound = open) plus the instantiation of the recursive literal.
type expState struct {
	ans      storage.Tuple
	frontier []frontierSlot
}

func (s expState) key() string {
	b := make([]byte, 0, 4*len(s.ans)+6*len(s.frontier))
	var tmp [4]byte
	for _, v := range s.ans {
		binary.BigEndian.PutUint32(tmp[:], uint32(v))
		b = append(b, tmp[:]...)
	}
	for _, f := range s.frontier {
		b = append(b, byte(f.kind))
		switch f.kind {
		case slotBound:
			binary.BigEndian.PutUint32(tmp[:], uint32(f.val))
			b = append(b, tmp[:]...)
		case slotLinked:
			b = append(b, byte(f.link))
		}
	}
	return string(b)
}

// MaterializeExit evaluates the system's exit rules over the database into a
// single relation of the recursive predicate's arity — the paper's exit
// relation E.
func MaterializeExit(sys *ast.RecursiveSystem, db *storage.Database) (*storage.Relation, error) {
	out := storage.NewRelation(sys.Arity())
	rels := DBRels(db)
	for _, exit := range sys.Exits {
		c := CompileConj(db.Syms, exit.Body)
		slots, fixed, err := headSlots(c, db.Syms, exit.Head)
		if err != nil {
			return nil, fmt.Errorf("exit rule %v: %w", exit, err)
		}
		c.EvalProject(rels, c.NewBinding(), slots, fixed, out)
	}
	return out, nil
}

// StateEvalOpts answers the query over the database with the generic
// compiled expansion strategy. It works for every class of the paper's
// taxonomy and terminates on all inputs (finite state space); class-specific
// evaluators beat it where the paper's analysis applies. Each worklist sweep
// (one expansion depth) becomes one round under a "fixpoint" span tagged
// engine=state. Like the paper, it assumes the database stores no tuples
// under the recursive predicate itself.
func StateEvalOpts(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	n := sys.Arity()
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != n {
		return nil, Stats{}, fmt.Errorf("eval: query %v does not match predicate %s/%d", q, sys.Pred(), n)
	}
	exitRel, err := MaterializeExit(sys, db)
	if err != nil {
		return nil, Stats{}, err
	}
	rule := sys.Recursive
	recAtom, _ := rule.RecursiveAtom()
	conj := CompileConj(db.Syms, rule.NonRecursiveAtoms())

	// Head variable slots in the conjunction (−1 when the head variable
	// does not occur in any non-recursive literal).
	headSlot := make([]int, n)
	for i, t := range rule.Head.Args {
		headSlot[i] = conj.VarID(t.Name)
	}
	// Recursive literal variable slots (−1 likewise). The paper's
	// restrictions make these variables pairwise distinct.
	recSlot := make([]int, n)
	recIsHead := make([]int, n) // rec arg == head arg at position -> head pos, else -1
	for i, t := range recAtom.Args {
		recSlot[i] = conj.VarID(t.Name)
		recIsHead[i] = -1
		for j, h := range rule.Head.Args {
			if h.Name == t.Name {
				recIsHead[i] = j
				break
			}
		}
	}

	answers := storage.NewRelation(n)
	var st Stats
	fix := opts.parent().Child("fixpoint").SetStr("engine", "state")
	defer fix.End()
	sink := newRoundSink(&st, opts, fix)
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		sink.stratumDone(st.Rounds)
		flushRels(opts, &st, answers, exitRel)
	}()

	// Initial state from the query.
	init := expState{ans: make(storage.Tuple, n), frontier: make([]frontierSlot, n)}
	for i, t := range q.Atom.Args {
		if t.IsVar() {
			init.ans[i] = Unbound
			init.frontier[i] = frontierSlot{kind: slotLinked, link: i}
		} else {
			v, ok := db.Syms.Lookup(t.Name)
			if !ok {
				// Constant absent from the database: it can never be
				// produced, so the answer set is empty.
				return answers, st, nil
			}
			init.ans[i] = v
			init.frontier[i] = frontierSlot{kind: slotBound, val: v}
		}
	}

	seen := map[string]bool{init.key(): true}
	worklist := []expState{init}
	emit := func(s expState) {
		// Join the state's frontier with the exit relation.
		bound := make([]bool, n)
		vals := make(storage.Tuple, n)
		for i, f := range s.frontier {
			if f.kind == slotBound {
				bound[i] = true
				vals[i] = f.val
			}
		}
		buf := make(storage.Tuple, n)
		exitRel.EachMatch(bound, vals, func(t storage.Tuple) bool {
			copy(buf, s.ans)
			ok := true
			for i, f := range s.frontier {
				if f.kind == slotLinked {
					if buf[f.link] == Unbound {
						buf[f.link] = t[i]
					} else if buf[f.link] != t[i] {
						ok = false
						break
					}
				}
			}
			if ok {
				complete := true
				for _, v := range buf {
					if v == Unbound {
						complete = false
						break
					}
				}
				st.Facts++
				if complete && answers.Insert(buf) {
					st.Derived++
				}
			}
			return true
		})
	}
	emit(init)

	rels := DBRels(db)
	for len(worklist) > 0 {
		st.Rounds++
		sink.begin()
		facts0, derived0 := st.Facts, st.Derived
		var next []expState
		for _, s := range worklist {
			// Instantiate the rule copy: head variable i takes the state's
			// frontier slot i.
			binding := conj.NewBinding()
			symOf := make([]int, conj.NumVars()) // conj slot -> answer pos (or -1)
			for i := range symOf {
				symOf[i] = -1
			}
			feasible := true
			for i := 0; i < n; i++ {
				f := s.frontier[i]
				hs := headSlot[i]
				switch f.kind {
				case slotBound:
					if hs >= 0 {
						if binding[hs] != Unbound && binding[hs] != f.val {
							feasible = false
						}
						binding[hs] = f.val
					}
				case slotLinked:
					if hs >= 0 {
						symOf[hs] = f.link
					}
				}
			}
			if !feasible {
				continue
			}
			conj.Eval(rels, binding, func(b []storage.Value) bool {
				ns := expState{ans: s.ans.Clone(), frontier: make([]frontierSlot, n)}
				ok := true
				// Resolve answer positions whose symbolic variables got bound.
				for slot, link := range symOf {
					if link < 0 {
						continue
					}
					v := b[slot]
					if v == Unbound {
						continue
					}
					if ns.ans[link] == Unbound {
						ns.ans[link] = v
					} else if ns.ans[link] != v {
						ok = false
						break
					}
				}
				if !ok {
					return true
				}
				// Build the new frontier from the recursive literal.
				for i := 0; i < n; i++ {
					rs := recSlot[i]
					var v storage.Value = Unbound
					if rs >= 0 {
						v = b[rs]
					}
					switch {
					case v != Unbound:
						ns.frontier[i] = frontierSlot{kind: slotBound, val: v}
					case recIsHead[i] >= 0 && s.frontier[recIsHead[i]].kind == slotLinked:
						// The head variable flows through unchanged and is
						// still symbolic: the link survives.
						ns.frontier[i] = frontierSlot{kind: slotLinked, link: s.frontier[recIsHead[i]].link}
					case recIsHead[i] >= 0 && s.frontier[recIsHead[i]].kind == slotBound:
						ns.frontier[i] = frontierSlot{kind: slotBound, val: s.frontier[recIsHead[i]].val}
					default:
						ns.frontier[i] = frontierSlot{kind: slotFree}
					}
				}
				k := ns.key()
				if !seen[k] {
					seen[k] = true
					emit(ns)
					next = append(next, ns)
				}
				return true
			})
		}
		sink.end(RoundStats{
			Round: st.Rounds, Delta: len(worklist),
			Derived: st.Derived - derived0, Attempted: st.Facts - facts0,
		})
		worklist = next
	}
	return answers, st, nil
}
