package ast

import (
	"errors"
	"fmt"
)

// Restriction violations reported by ValidateRecursive. Each corresponds to
// one of the assumptions in §2 of the paper.
var (
	// ErrNotRecursive: the rule does not mention its head predicate in the body.
	ErrNotRecursive = errors.New("rule is not recursive")
	// ErrNotLinear: more than one occurrence of the recursive predicate in the body.
	ErrNotLinear = errors.New("rule is not linear (multiple recursive occurrences)")
	// ErrConstantInRule: the paper disallows constants in recursive statements.
	ErrConstantInRule = errors.New("constant appears in recursive rule")
	// ErrRepeatedRecVar: a variable appears more than once under the recursive predicate.
	ErrRepeatedRecVar = errors.New("variable repeated under recursive predicate")
	// ErrArityMismatch: head and recursive body atom have different arities.
	ErrArityMismatch = errors.New("recursive predicate arity mismatch")
	// ErrNotRangeRestricted: a head variable neither appears in a non-recursive
	// body literal nor is chained through the recursive predicate (Gallaire et
	// al. range restriction, as used in §3 of the paper).
	ErrNotRangeRestricted = errors.New("rule is not range restricted")
	// ErrNegationInFragment: the paper's linear recursive systems are pure
	// positive; negated literals are only supported by the bottom-up
	// engines under stratified semantics.
	ErrNegationInFragment = errors.New("negated literal outside the paper's fragment")
)

// ValidateRecursive checks that r satisfies every restriction the paper
// places on a (single) linear recursive statement:
//
//   - function-free Horn clause (guaranteed by the AST),
//   - exactly one occurrence of the recursive predicate in the antecedent,
//   - no equality literal (the AST has no equality),
//   - no constants anywhere in the statement,
//   - no variable appearing more than once under the recursive predicate
//     (both the consequent and the antecedent occurrence),
//   - range restriction: every variable of the consequent also appears in
//     the antecedent.
//
// It returns nil when the rule is admissible, otherwise an error wrapping one
// of the Err* sentinel values above.
func ValidateRecursive(r Rule) error {
	rec := r.RecursiveAtoms()
	switch {
	case len(rec) == 0:
		return fmt.Errorf("%w: %v", ErrNotRecursive, r)
	case len(rec) > 1:
		return fmt.Errorf("%w: %v", ErrNotLinear, r)
	}
	body := r.Body[rec[0]]
	if len(body.Args) != len(r.Head.Args) {
		return fmt.Errorf("%w: head %d vs body %d", ErrArityMismatch, len(r.Head.Args), len(body.Args))
	}
	for _, a := range append([]Atom{r.Head}, r.Body...) {
		if a.Neg {
			return fmt.Errorf("%w: negated literal %v", ErrNegationInFragment, a)
		}
		for _, t := range a.Args {
			if !t.IsVar() {
				return fmt.Errorf("%w: %v in %v", ErrConstantInRule, t, a)
			}
		}
	}
	for _, occ := range []Atom{r.Head, body} {
		seen := make(map[string]bool, len(occ.Args))
		for _, t := range occ.Args {
			if seen[t.Name] {
				return fmt.Errorf("%w: %s in %v", ErrRepeatedRecVar, t.Name, occ)
			}
			seen[t.Name] = true
		}
	}
	inBody := make(map[string]bool)
	for _, a := range r.Body {
		for _, t := range a.Args {
			inBody[t.Name] = true
		}
	}
	for _, t := range r.Head.Args {
		if !inBody[t.Name] {
			return fmt.Errorf("%w: head variable %s not in body", ErrNotRangeRestricted, t.Name)
		}
	}
	return nil
}

// ValidateExit checks that r is an admissible exit rule for the recursive
// predicate pred of arity n: its head is pred/n and its body mentions only
// non-recursive predicates.
func ValidateExit(r Rule, pred string, arity int) error {
	if r.Head.Pred != pred {
		return fmt.Errorf("exit rule head %s, want %s", r.Head.Pred, pred)
	}
	if r.Head.Arity() != arity {
		return fmt.Errorf("%w: exit head arity %d, want %d", ErrArityMismatch, r.Head.Arity(), arity)
	}
	for _, a := range r.Body {
		if a.Pred == pred {
			return fmt.Errorf("exit rule body mentions recursive predicate %s", pred)
		}
		if a.Neg {
			return fmt.Errorf("%w: %v in exit rule", ErrNegationInFragment, a)
		}
	}
	return nil
}

// RecursiveSystem is the object of study in the paper: one linear recursive
// rule for predicate P together with one or more exit rules P :- E.
type RecursiveSystem struct {
	Recursive Rule
	Exits     []Rule
}

// NewRecursiveSystem validates and assembles a recursive system. The
// recursive rule must satisfy ValidateRecursive and every exit rule must
// satisfy ValidateExit.
func NewRecursiveSystem(rec Rule, exits ...Rule) (*RecursiveSystem, error) {
	if err := ValidateRecursive(rec); err != nil {
		return nil, err
	}
	for _, e := range exits {
		if err := ValidateExit(e, rec.Head.Pred, rec.Head.Arity()); err != nil {
			return nil, err
		}
	}
	return &RecursiveSystem{Recursive: rec, Exits: exits}, nil
}

// SystemOf extracts the program's single linear recursive system: the one
// rule that mentions its own head predicate in its body, with every other
// rule as an exit rule for that predicate (NewRecursiveSystem validates
// both). Facts are ignored, and a system without exit rules is admissible
// here; callers that need one check Exits.
func SystemOf(prog *Program) (*RecursiveSystem, error) {
	var rec *Rule
	var exits []Rule
	for i := range prog.Rules {
		r := &prog.Rules[i]
		switch {
		case len(r.RecursiveAtoms()) == 0:
			exits = append(exits, *r)
		case rec != nil:
			return nil, fmt.Errorf("more than one recursive rule (%v and %v)", *rec, *r)
		default:
			rec = r
		}
	}
	if rec == nil {
		return nil, errors.New("no recursive rule")
	}
	return NewRecursiveSystem(*rec, exits...)
}

// Arities returns the arity of every predicate the program mentions — in a
// rule head, a body literal or a fact — or an error when the program uses
// one predicate with two different arities.
func (p *Program) Arities() (map[string]int, error) {
	arities := make(map[string]int)
	note := func(a Atom) error {
		if n, seen := arities[a.Pred]; seen && n != a.Arity() {
			return fmt.Errorf("predicate %s is used with arity %d and with arity %d", a.Pred, n, a.Arity())
		}
		arities[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		for _, a := range append([]Atom{r.Head}, r.Body...) {
			if err := note(a); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range p.Facts {
		if err := note(f); err != nil {
			return nil, err
		}
	}
	return arities, nil
}

// Pred returns the recursive predicate name.
func (s *RecursiveSystem) Pred() string { return s.Recursive.Head.Pred }

// Arity returns the arity (the paper's dimension D) of the recursive
// predicate.
func (s *RecursiveSystem) Arity() int { return s.Recursive.Head.Arity() }

// Program returns the system as a Program (recursive rule first).
func (s *RecursiveSystem) Program() *Program {
	p := &Program{}
	p.AddRule(s.Recursive)
	for _, e := range s.Exits {
		p.AddRule(e)
	}
	return p
}

// DefaultExit builds the generic exit rule P(x1..xn) :- E(x1..xn) that the
// paper writes as "P :- E" when the exit structure does not matter. exitPred
// names the exit relation (conventionally "E" or "e").
func DefaultExit(pred string, arity int, exitPred string) Rule {
	args := make([]Term, arity)
	for i := range args {
		args[i] = V(fmt.Sprintf("x%d", i+1))
	}
	return NewRule(NewAtom(pred, args...), NewAtom(exitPred, args...))
}
