// Package ast defines the abstract syntax of the function-free Horn-clause
// language studied in Youn, Henschen & Han (SIGMOD 1988): terms, atoms,
// rules, facts, queries and whole programs, together with the syntactic
// restrictions the paper places on linear recursive formulas.
package ast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// TermKind discriminates the two kinds of term in the function-free language.
type TermKind uint8

const (
	// Variable is a logical variable (written lower- or upper-case by the
	// parser; the AST does not care).
	Variable TermKind = iota
	// Constant is an uninterpreted constant symbol.
	Constant
)

// Term is a variable or a constant. The language is function-free, so no
// deeper structure exists.
type Term struct {
	Kind TermKind
	Name string
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: Variable, Name: name} }

// C returns a constant term.
func C(name string) Term { return Term{Kind: Constant, Name: name} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == Variable }

// String renders the term in re-parseable surface syntax: variables and
// bare constants (lowercase identifiers, integers) print as-is; any other
// constant is quoted.
func (t Term) String() string {
	if t.Kind == Constant && !isBareConstant(t.Name) {
		return strconv.Quote(t.Name)
	}
	return t.Name
}

// isBareConstant reports whether name lexes back as a constant token: a
// lowercase-initial identifier or an integer literal.
func isBareConstant(name string) bool {
	if name == "" {
		return false
	}
	runes := []rune(name)
	if unicode.IsLower(runes[0]) {
		for _, r := range runes[1:] {
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '\'' {
				return false
			}
		}
		return true
	}
	start := 0
	if runes[0] == '-' {
		if len(runes) == 1 {
			return false
		}
		start = 1
	}
	for _, r := range runes[start:] {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return unicode.IsDigit(runes[start])
}

// Atom is a predicate applied to terms, e.g. P(x, y).
type Atom struct {
	Pred string
	Args []Term
	// Neg marks a negated body literal ("not p(X)"). Negation is a
	// substrate extension for the bottom-up engines (stratified semantics);
	// the paper's recursive systems are pure positive and the §2 validator
	// rejects negated literals.
	Neg bool
}

// NewAtom builds a positive atom from a predicate name and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Not returns the negated form of the atom.
func (a Atom) Not() Atom {
	out := a.Clone()
	out.Neg = true
	return out
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []string {
	seen := make(map[string]bool, len(a.Args))
	var out []string
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// String renders the atom in the surface syntax, e.g. "P(x, y)".
func (a Atom) String() string {
	var b strings.Builder
	if a.Neg {
		b.WriteString("not ")
	}
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || a.Neg != b.Neg || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args, Neg: a.Neg}
}

// Rename returns a copy of the atom with every variable mapped through sub;
// variables absent from sub are kept.
func (a Atom) Rename(sub map[string]Term) Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			if r, ok := sub[t.Name]; ok {
				out.Args[i] = r
			}
		}
	}
	return out
}

// Rule is a Horn clause Head :- Body[0] ∧ … ∧ Body[n-1]. An empty body
// denotes a fact (the head must then be ground to be storable).
type Rule struct {
	Head Atom
	Body []Atom
}

// NewRule builds a rule.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{Head: head, Body: body}
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// String renders the rule in the surface syntax.
func (r Rule) String() string {
	if r.IsFact() {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	body := make([]Atom, len(r.Body))
	for i, a := range r.Body {
		body[i] = a.Clone()
	}
	return Rule{Head: r.Head.Clone(), Body: body}
}

// Rename returns a copy of the rule with all variables mapped through sub.
func (r Rule) Rename(sub map[string]Term) Rule {
	body := make([]Atom, len(r.Body))
	for i, a := range r.Body {
		body[i] = a.Rename(sub)
	}
	return Rule{Head: r.Head.Rename(sub), Body: body}
}

// Vars returns the distinct variables of the rule in order of first
// occurrence (head first, then body left to right).
func (r Rule) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	add(r.Head)
	for _, a := range r.Body {
		add(a)
	}
	return out
}

// RecursiveAtoms returns the indexes of body atoms whose predicate equals the
// head predicate.
func (r Rule) RecursiveAtoms() []int {
	var idx []int
	for i, a := range r.Body {
		if a.Pred == r.Head.Pred {
			idx = append(idx, i)
		}
	}
	return idx
}

// IsLinearRecursive reports whether the rule contains exactly one occurrence
// of the head predicate in its body.
func (r Rule) IsLinearRecursive() bool { return len(r.RecursiveAtoms()) == 1 }

// RecursiveAtom returns the single recursive body atom and its index. It
// panics unless the rule is linear recursive; call IsLinearRecursive first.
func (r Rule) RecursiveAtom() (Atom, int) {
	idx := r.RecursiveAtoms()
	if len(idx) != 1 {
		panic(fmt.Sprintf("ast: rule %v is not linear recursive", r))
	}
	return r.Body[idx[0]], idx[0]
}

// NonRecursiveAtoms returns the body atoms whose predicate differs from the
// head predicate, preserving order.
func (r Rule) NonRecursiveAtoms() []Atom {
	var out []Atom
	for _, a := range r.Body {
		if a.Pred != r.Head.Pred {
			out = append(out, a)
		}
	}
	return out
}

// Program is a set of rules and ground facts. Rules is ordered as given;
// Facts is ordered as given.
type Program struct {
	Rules []Rule
	Facts []Atom
}

// Program returns p itself: a Program is its own rule set wherever one is
// asked for through the method a RecursiveSystem also has.
func (p *Program) Program() *Program { return p }

// AddRule appends a rule (or records a ground head as a fact).
func (p *Program) AddRule(r Rule) {
	if r.IsFact() && r.Head.IsGround() {
		p.Facts = append(p.Facts, r.Head)
		return
	}
	p.Rules = append(p.Rules, r)
}

// RulesFor returns all non-fact rules whose head predicate is pred.
func (p *Program) RulesFor(pred string) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// IDBPreds returns the sorted set of predicates defined by rules.
func (p *Program) IDBPreds() []string {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EDBPreds returns the sorted set of predicates that appear in rule bodies or
// facts but are not defined by any rule.
func (p *Program) EDBPreds() []string {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	set := make(map[string]bool)
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if !idb[a.Pred] {
				set[a.Pred] = true
			}
		}
	}
	for _, f := range p.Facts {
		if !idb[f.Pred] {
			set[f.Pred] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the program, rules first, then facts.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// Query is a single atom whose constant arguments are bindings and whose
// variable arguments are requested outputs, e.g. P(a, b, Z).
type Query struct {
	Atom Atom
}

// String renders the query in the surface syntax "?- P(a, Y).".
func (q Query) String() string { return "?- " + q.Atom.String() + "." }
