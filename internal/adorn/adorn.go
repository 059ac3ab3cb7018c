// Package adorn implements binding patterns (adornments) and the paper's
// determined-variable analysis: a variable is determined for a query if its
// value is given in the query or derivable from a query constant by
// selection and join operations over only the non-recursive predicates
// (Henschen & Naqvi 1984, as used in §3 of the paper). The per-expansion
// simulation of determined positions is the paper's "semantic view" of
// stability, used to verify Theorem 1 against the syntactic cycle test.
package adorn

import (
	"strings"

	"repro/internal/ast"
)

// Adornment marks each argument position of the recursive predicate as
// bound (determined, the paper's "d") or free ("v").
type Adornment []bool

// FromQuery derives the adornment of a query atom: constant arguments are
// bound.
func FromQuery(q ast.Query) Adornment {
	a := make(Adornment, len(q.Atom.Args))
	for i, t := range q.Atom.Args {
		a[i] = !t.IsVar()
	}
	return a
}

// String renders the adornment in the paper's d/v notation, e.g. "dvv".
func (a Adornment) String() string {
	var b strings.Builder
	for _, bound := range a {
		if bound {
			b.WriteByte('d')
		} else {
			b.WriteByte('v')
		}
	}
	return b.String()
}

// BoundCount returns the number of bound positions.
func (a Adornment) BoundCount() int {
	n := 0
	for _, b := range a {
		if b {
			n++
		}
	}
	return n
}

// Equal reports position-wise equality.
func (a Adornment) Equal(b Adornment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone copies the adornment.
func (a Adornment) Clone() Adornment {
	out := make(Adornment, len(a))
	copy(out, a)
	return out
}

// AllAdornments enumerates all 2^n adornments of arity n in binary order.
func AllAdornments(n int) []Adornment {
	out := make([]Adornment, 0, 1<<uint(n))
	for m := 0; m < 1<<uint(n); m++ {
		a := make(Adornment, n)
		for i := 0; i < n; i++ {
			a[i] = m&(1<<uint(i)) != 0
		}
		out = append(out, a)
	}
	return out
}

// Closure computes the determined-variable closure: starting from the
// determined set, repeatedly mark every variable of a non-recursive literal
// one of whose variables is determined ("if x is determined and L(..x..y..)
// is non-recursive, then y is also determined").
func Closure(nonRecursive []ast.Atom, determined map[string]bool) {
	for changed := true; changed; {
		changed = false
		for _, atom := range nonRecursive {
			hit := false
			for _, t := range atom.Args {
				if t.IsVar() && determined[t.Name] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, t := range atom.Args {
				if t.IsVar() && !determined[t.Name] {
					determined[t.Name] = true
					changed = true
				}
			}
		}
	}
}

// Step propagates an adornment through one expansion of the recursive rule:
// the bound head positions determine their variables, the closure runs over
// the non-recursive literals, and the result is the adornment of the
// recursive literal in the antecedent.
func Step(rule ast.Rule, a Adornment) Adornment {
	out, _ := step(rule, a, false)
	return out
}

// StepReach is Step also returning, in body order, the non-recursive
// literals the closure reached: those holding a determined variable. They
// are the only ones that constrain the recursive literal's determined
// positions; the rest join in nothing the bound head positions fix.
func StepReach(rule ast.Rule, a Adornment) (Adornment, []ast.Atom) {
	return step(rule, a, true)
}

func step(rule ast.Rule, a Adornment, reach bool) (Adornment, []ast.Atom) {
	recAtom, _ := rule.RecursiveAtom()
	determined := make(map[string]bool)
	for i, t := range rule.Head.Args {
		if a[i] {
			determined[t.Name] = true
		}
	}
	nonRec := rule.NonRecursiveAtoms()
	Closure(nonRec, determined)
	out := make(Adornment, len(recAtom.Args))
	for i, t := range recAtom.Args {
		out[i] = determined[t.Name]
	}
	if !reach {
		return out, nil
	}
	var reached []ast.Atom
	for _, atom := range nonRec {
		for _, t := range atom.Args {
			if t.IsVar() && determined[t.Name] {
				reached = append(reached, atom)
				break
			}
		}
	}
	return out, reached
}

// Pattern returns the sequence of adornments of the recursive literal over
// the first k expansions: element 0 is the query adornment itself and
// element i (i ≥ 1) the adornment after i propagation steps. This is the
// paper's query-form pattern, e.g. (s12) with p(d,v,v): dvv, ddv, ddv, …
func Pattern(rule ast.Rule, a Adornment, k int) []Adornment {
	out := make([]Adornment, 0, k+1)
	cur := a.Clone()
	out = append(out, cur)
	for i := 0; i < k; i++ {
		cur = Step(rule, cur)
		out = append(out, cur)
	}
	return out
}

// PatternPeriod finds the smallest (start, period) such that the adornment
// sequence of the rule under query adornment a satisfies
// pattern[i+period] == pattern[i] for all i ≥ start. Because the adornment
// space is finite (2^n) the sequence always becomes eventually periodic.
func PatternPeriod(rule ast.Rule, a Adornment) (start, period int) {
	seen := make(map[string]int)
	cur := a.Clone()
	for i := 0; ; i++ {
		k := cur.String()
		if j, ok := seen[k]; ok {
			return j, i - j
		}
		seen[k] = i
		cur = Step(rule, cur)
	}
}

// SemanticallyStable reports whether the rule is strongly stable in the
// paper's semantic sense: for every query form, the determined positions of
// the recursive predicate in the consequent and in the antecedent coincide
// at every expansion. By Theorem 1 this holds iff the I-graph consists of
// disjoint unit cycles.
func SemanticallyStable(rule ast.Rule) bool {
	n := rule.Head.Arity()
	for _, a := range AllAdornments(n) {
		if !Step(rule, a).Equal(a) {
			return false
		}
	}
	return true
}

// EventuallyStableFor reports whether, for the given query adornment, the
// pattern eventually becomes constant (period 1), and if so from which
// expansion. Statement (s12) is eventually stable for p(d,v,v) from the
// first expansion although it is not strongly stable.
func EventuallyStableFor(rule ast.Rule, a Adornment) (stableFrom int, ok bool) {
	start, period := PatternPeriod(rule, a)
	if period == 1 {
		return start, true
	}
	return 0, false
}
