package eval

// Cost-based join ordering. The greedy dynamic ordering in conj.go decides
// the next atom one step at a time from whatever is bound so far; it cannot
// see that a cheap-looking first atom (small relation) explodes when its
// free variable joins into a hot key of the next relation. This file
// chooses the whole order once, at plan-compile time, from the storage
// layer's column statistics: a System-R-style left-deep search over the
// small bodies this codebase sees (≤ maxPlanAtoms atoms), with the
// engine's existing evaluation constraints kept hard — negated literals
// are only placeable once fully bound, and Cartesian products are avoided
// whenever a connected atom exists.
//
// The cost unit is "tuples visited": the number of postings EachMatch
// walks, which is exactly what Conj.EvalWith's visit counter measures at
// runtime, so estimates and actuals land in the same column of the round
// stats. The per-probe fan-out estimate for a bound column is the column's
// MAX bucket size, not the average: on skewed data the average reproduces
// the same mistake as the greedy order (the hot key dominates actual work
// but disappears in the mean), and a worst-case estimate is the right
// polarity for choosing between orders — see TestCostModelSkew.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/storage"
)

// maxPlanAtoms caps the left-deep search. Bodies beyond the cap keep the
// dynamic greedy ordering (a nil compiled order): the search is exponential
// in the worst case, and the paper's systems never exceed a handful of
// literals per rule.
const maxPlanAtoms = 8

// costCap saturates cost accumulation so pathological estimates stay
// comparable instead of overflowing.
const costCap = 1e18

// relStat is one relation's statistics snapshot as the model uses it.
type relStat struct {
	n    float64
	cols []storage.ColStats
}

// costModel snapshots the statistics of every relation a rule set reads.
// Predicates with no relation (or an empty one) at compile time — IDB
// predicates mid-fixpoint — get a neutral estimate: size defaultN, bound
// probes sqrt(defaultN) (the fan-out of a uniform square relation), so a
// known-selective EDB probe is still preferred over an unknown IDB scan
// without assuming the IDB is empty.
type costModel struct {
	stats    map[string]relStat
	defaultN float64
}

// newCostModel reads the statistics of every body predicate of the rules
// from db. It never builds indexes (ColStats samples unindexed columns), so
// concurrent planners may share the database. seed, when set, names a
// magic-sets program's seed relation: it holds one tuple (the query's
// constants) when the rules run, not an unknown IDB's defaultN.
func newCostModel(rules []ast.Rule, db *storage.Database, seed string) *costModel {
	m := &costModel{stats: make(map[string]relStat), defaultN: 16}
	for _, r := range rules {
		for _, a := range r.Body {
			if _, ok := m.stats[a.Pred]; ok {
				continue
			}
			if a.Pred == seed { // fanout reads the zero MaxBucket as 1
				m.stats[seed] = relStat{n: 1, cols: make([]storage.ColStats, a.Arity())}
				continue
			}
			rel := db.Rel(a.Pred)
			if rel == nil || rel.Len() == 0 {
				continue
			}
			rs := relStat{n: float64(rel.Len()), cols: make([]storage.ColStats, rel.Arity())}
			for c := 0; c < rel.Arity(); c++ {
				rs.cols[c] = rel.ColStats(c)
			}
			m.stats[a.Pred] = rs
			if rs.n > m.defaultN {
				m.defaultN = rs.n
			}
		}
	}
	return m
}

// fanout estimates the tuples one EachMatch probe of the atom visits under
// the given variable-boundness state (constants always count as bound).
func (m *costModel) fanout(a *compiledAtom, boundVar []bool) float64 {
	nb := 0
	for _, s := range a.args {
		if !s.isVar || boundVar[s.varID] {
			nb++
		}
	}
	rs, known := m.stats[a.pred]
	if !known {
		switch {
		case nb == len(a.args):
			return 1
		case nb == 0:
			return m.defaultN
		default:
			return math.Sqrt(m.defaultN)
		}
	}
	if nb == len(a.args) {
		return 1 // membership check
	}
	if nb == 0 {
		return rs.n // full scan
	}
	// EachMatch picks the most selective bound column's index; its
	// worst-case bucket is that column's MaxBucket. Taking the min over
	// bound columns mirrors the index pick.
	best := rs.n
	for j, s := range a.args {
		if s.isVar && !boundVar[s.varID] {
			continue
		}
		if j < len(rs.cols) {
			if b := float64(rs.cols[j].MaxBucket); b < best {
				best = b
			}
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}

// ruleOrder is the compiled ordering decision for one rule body.
type ruleOrder struct {
	// full is the join order for a full (unseeded) evaluation; nil means
	// the search declined (body too large) and the dynamic order stays.
	full     []int
	fullCost float64
	// seeded[bi] is the order used when atom bi is the delta occurrence:
	// the order starts at bi (whose variables the delta binds) and
	// seedCost[bi] estimates the tuples visited per delta tuple. nil
	// entries (negated atoms, oversized bodies) fall back to dynamic.
	seeded   [][]int
	seedCost []float64
}

// orderBook maps every rule of a compiled program to its ordering decision,
// keyed by the rule's canonical string. cost is the summed full-evaluation
// estimate and desc holds one human-readable line per rule, both reported
// through PlanInfo.
type orderBook struct {
	orders map[string]*ruleOrder
	cost   float64
	desc   []string
}

func (b *orderBook) orderFor(r ast.Rule) *ruleOrder {
	if b == nil {
		return nil
	}
	return b.orders[r.String()]
}

// orderSearch is the DFS state of the left-deep enumeration for one rule.
type orderSearch struct {
	c        *Conj
	m        *costModel
	boundVar []bool
	used     []bool
	cur      []int
	best     []int
	bestCost float64
}

// placeable collects the atoms allowed at the current depth: a fully bound
// negated literal is forced immediately (it only prunes, never grows);
// otherwise positives with at least one bound argument when any exists (no
// Cartesian product while a connected atom remains), else all positives.
func (s *orderSearch) placeable(buf []int) []int {
	buf = buf[:0]
	anyConnected := false
	for i := range s.c.atoms {
		if s.used[i] {
			continue
		}
		a := &s.c.atoms[i]
		nb := 0
		for _, sp := range a.args {
			if !sp.isVar || s.boundVar[sp.varID] {
				nb++
			}
		}
		if a.neg {
			if nb == len(a.args) {
				return append(buf[:0], i) // forced: constant-time filter
			}
			continue
		}
		if nb > 0 && !anyConnected {
			anyConnected = true
			buf = buf[:0]
		}
		if nb > 0 || !anyConnected {
			buf = append(buf, i)
		}
	}
	return buf
}

func (s *orderSearch) dfs(depth int, rows, cost float64) {
	if cost >= s.bestCost {
		return // branch-and-bound: cost only grows
	}
	if depth == len(s.c.atoms) {
		s.bestCost = cost
		s.best = append(s.best[:0], s.cur...)
		return
	}
	var cbuf [maxPlanAtoms]int
	cands := s.placeable(cbuf[:])
	for _, i := range cands {
		a := &s.c.atoms[i]
		var nextRows, nextCost float64
		if a.neg {
			nextRows, nextCost = rows, cost+rows
		} else {
			fan := s.m.fanout(a, s.boundVar)
			visits := rows * fan
			nextRows, nextCost = visits, cost+visits
		}
		if nextCost > costCap {
			nextCost = costCap
		}
		var assigned [maxPlanAtoms]int
		na := 0
		for _, sp := range a.args {
			if sp.isVar && !s.boundVar[sp.varID] {
				s.boundVar[sp.varID] = true
				assigned[na] = sp.varID
				na++
			}
		}
		s.used[i] = true
		s.cur = append(s.cur, i)
		s.dfs(depth+1, nextRows, nextCost)
		s.cur = s.cur[:len(s.cur)-1]
		s.used[i] = false
		for k := 0; k < na; k++ {
			s.boundVar[assigned[k]] = false
		}
	}
}

// search runs the left-deep enumeration with the given pre-bound variables
// and pre-placed seed atom (seed < 0 for a full evaluation). It returns the
// best complete order and its cost, or nil when no valid order exists
// (unsafe negation would be the only cause; the engines validate safety
// upstream, so nil simply falls back to dynamic).
func searchOrder(c *Conj, m *costModel, preBound []bool, seed int) ([]int, float64) {
	s := &orderSearch{
		c: c, m: m,
		boundVar: make([]bool, c.NumVars()),
		used:     make([]bool, len(c.atoms)),
		cur:      make([]int, 0, len(c.atoms)),
		bestCost: math.Inf(1),
	}
	copy(s.boundVar, preBound)
	rows, cost := 1.0, 0.0
	if seed >= 0 {
		a := &c.atoms[seed]
		for _, sp := range a.args {
			if sp.isVar {
				s.boundVar[sp.varID] = true
			}
		}
		s.used[seed] = true
		s.cur = append(s.cur, seed)
		s.dfs(1, rows, cost)
	} else {
		s.dfs(0, rows, cost)
	}
	if math.IsInf(s.bestCost, 1) {
		return nil, 0
	}
	return append([]int(nil), s.best...), s.bestCost
}

// compileOrderBook chooses a join order for every rule against the
// database's current statistics (and seed's, see newCostModel). boundOf,
// when non-nil, names the variables already bound before each rule's body
// runs (the bounded plan's adorned head constants); nil means no pre-bound
// variables. Rules whose bodies exceed maxPlanAtoms get no compiled order
// and keep the runtime greedy ordering.
func compileOrderBook(syms *storage.Symbols, rules []ast.Rule, db *storage.Database, seed string, boundOf func(ast.Rule) map[string]bool) *orderBook {
	book := &orderBook{orders: make(map[string]*ruleOrder, len(rules))}
	m := newCostModel(rules, db, seed)
	for ri, r := range rules {
		key := r.String()
		if _, ok := book.orders[key]; ok {
			continue
		}
		ord := &ruleOrder{}
		book.orders[key] = ord
		if len(r.Body) > maxPlanAtoms {
			continue
		}
		c := CompileConj(syms, r.Body)
		pre := make([]bool, c.NumVars())
		if boundOf != nil {
			for name := range boundOf(r) {
				if id := c.VarID(name); id >= 0 {
					pre[id] = true
				}
			}
		}
		ord.full, ord.fullCost = searchOrder(c, m, pre, -1)
		ord.seeded = make([][]int, len(r.Body))
		ord.seedCost = make([]float64, len(r.Body))
		for bi := range r.Body {
			if r.Body[bi].Neg {
				continue
			}
			ord.seeded[bi], ord.seedCost[bi] = searchOrder(c, m, pre, bi)
		}
		book.cost += ord.fullCost
		if ord.full != nil {
			names := make([]string, len(ord.full))
			for k, ai := range ord.full {
				lit := r.Body[ai].Pred
				if r.Body[ai].Neg {
					lit = "!" + lit
				}
				names[k] = lit
			}
			book.desc = append(book.desc, fmt.Sprintf("%s[%d]: %s cost=%.4g",
				r.Head.Pred, ri, strings.Join(names, ","), ord.fullCost))
		}
	}
	sort.Strings(book.desc)
	return book
}
