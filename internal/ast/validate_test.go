package ast

import (
	"errors"
	"reflect"
	"testing"
)

func TestValidateRecursiveAccepts(t *testing.T) {
	good := []Rule{
		NewRule(NewAtom("p", V("X"), V("Y")),
			NewAtom("a", V("X"), V("Z")), NewAtom("p", V("Z"), V("Y"))),
		NewRule(NewAtom("p", V("X"), V("Y"), V("Z")), NewAtom("p", V("Y"), V("Z"), V("X"))),
		NewRule(NewAtom("p", V("X")), NewAtom("a", V("X"), V("Y")), NewAtom("p", V("Y"))),
	}
	for _, r := range good {
		if err := ValidateRecursive(r); err != nil {
			t.Errorf("%v: unexpected error %v", r, err)
		}
	}
}

func TestValidateRecursiveRejects(t *testing.T) {
	cases := []struct {
		rule Rule
		want error
	}{
		{
			// No recursive occurrence.
			NewRule(NewAtom("p", V("X")), NewAtom("a", V("X"))),
			ErrNotRecursive,
		},
		{
			// Two recursive occurrences.
			NewRule(NewAtom("p", V("X")),
				NewAtom("p", V("X")), NewAtom("p", V("X"))),
			ErrNotLinear,
		},
		{
			// Constant in the rule.
			NewRule(NewAtom("p", V("X")),
				NewAtom("a", V("X"), C("k")), NewAtom("p", V("X"))),
			ErrConstantInRule,
		},
		{
			// Repeated variable under the consequent occurrence.
			NewRule(NewAtom("p", V("X"), V("X")),
				NewAtom("p", V("X"), V("Y")), NewAtom("a", V("X"), V("Y"))),
			ErrRepeatedRecVar,
		},
		{
			// Repeated variable under the antecedent occurrence.
			NewRule(NewAtom("p", V("X"), V("Y")),
				NewAtom("a", V("X"), V("Y"), V("Z")), NewAtom("p", V("Z"), V("Z"))),
			ErrRepeatedRecVar,
		},
		{
			// Arity mismatch between occurrences.
			NewRule(NewAtom("p", V("X"), V("Y")),
				NewAtom("a", V("X"), V("Y")), NewAtom("p", V("X"))),
			ErrArityMismatch,
		},
		{
			// Head variable missing from the body.
			NewRule(NewAtom("p", V("X"), V("Y")),
				NewAtom("a", V("X"), V("Z")), NewAtom("p", V("Z"), V("W"))),
			ErrNotRangeRestricted,
		},
	}
	for _, tc := range cases {
		err := ValidateRecursive(tc.rule)
		if err == nil {
			t.Errorf("%v: expected error %v, got nil", tc.rule, tc.want)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%v: got %v, want %v", tc.rule, err, tc.want)
		}
	}
}

func TestValidateExit(t *testing.T) {
	ok := NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("e", V("X"), V("Y")))
	if err := ValidateExit(ok, "p", 2); err != nil {
		t.Errorf("valid exit rejected: %v", err)
	}
	if err := ValidateExit(ok, "q", 2); err == nil {
		t.Error("wrong head predicate accepted")
	}
	if err := ValidateExit(ok, "p", 3); err == nil {
		t.Error("wrong arity accepted")
	}
	bad := NewRule(NewAtom("p", V("X")), NewAtom("p", V("X")))
	if err := ValidateExit(bad, "p", 1); err == nil {
		t.Error("recursive exit body accepted")
	}
}

func TestNewRecursiveSystem(t *testing.T) {
	rec := NewRule(NewAtom("p", V("X"), V("Y")),
		NewAtom("a", V("X"), V("Z")), NewAtom("p", V("Z"), V("Y")))
	exit := DefaultExit("p", 2, "e")
	sys, err := NewRecursiveSystem(rec, exit)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Pred() != "p" || sys.Arity() != 2 {
		t.Errorf("pred/arity = %s/%d", sys.Pred(), sys.Arity())
	}
	prog := sys.Program()
	if len(prog.Rules) != 2 {
		t.Errorf("program rules = %d", len(prog.Rules))
	}
	if _, err := NewRecursiveSystem(exit); err == nil {
		t.Error("non-recursive rule accepted as recursive")
	}
	badExit := NewRule(NewAtom("q", V("X"), V("Y")), NewAtom("e", V("X"), V("Y")))
	if _, err := NewRecursiveSystem(rec, badExit); err == nil {
		t.Error("exit for wrong predicate accepted")
	}
}

func TestSystemOf(t *testing.T) {
	rec := NewRule(NewAtom("p", V("X"), V("Y")),
		NewAtom("a", V("X"), V("Z")), NewAtom("p", V("Z"), V("Y")))
	rec2 := NewRule(NewAtom("p", V("X"), V("Y")),
		NewAtom("p", V("X"), V("Z")), NewAtom("b", V("Z"), V("Y")))
	exit := DefaultExit("p", 2, "e")
	other := NewRule(NewAtom("q", V("X"), V("Y")), NewAtom("e", V("X"), V("Y")))
	cases := []struct {
		name  string
		rules []Rule
		exits int // -1: want an error
	}{
		{"no recursive rule", []Rule{exit}, -1},
		{"two recursive rules", []Rule{rec, rec2, exit}, -1},
		{"exit for another predicate", []Rule{rec, other}, -1},
		{"exit first, two exits", []Rule{exit, rec, DefaultExit("p", 2, "f")}, 2},
		{"no exit rule", []Rule{rec}, 0},
	}
	for _, c := range cases {
		sys, err := SystemOf(&Program{Rules: c.rules, Facts: []Atom{NewAtom("e", C("a"), C("b"))}})
		if c.exits < 0 {
			if err == nil {
				t.Errorf("%s: accepted as %v", c.name, sys.Program())
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if sys.Recursive.String() != rec.String() || len(sys.Exits) != c.exits {
			t.Errorf("%s: recursive %v with %d exits, want %v with %d", c.name, sys.Recursive, len(sys.Exits), rec, c.exits)
		}
	}
}

func TestProgramArities(t *testing.T) {
	rec := NewRule(NewAtom("p", V("X"), V("Y")),
		NewAtom("a", V("X"), V("Z")), NewAtom("p", V("Z"), V("Y")))
	exit := DefaultExit("p", 2, "e")
	cases := []struct {
		name  string
		rules []Rule
		facts []Atom
		want  map[string]int // nil: want an error
	}{
		{"heads, body literals and facts", []Rule{rec, exit}, []Atom{NewAtom("f", C("a")), NewAtom("flag")},
			map[string]int{"p": 2, "a": 2, "e": 2, "f": 1, "flag": 0}},
		{"empty program", nil, nil, map[string]int{}},
		{"two heads disagree", []Rule{rec, DefaultExit("p", 3, "g")}, nil, nil},
		{"body literal against a head", []Rule{exit, NewRule(NewAtom("q", V("X")), NewAtom("p", V("X")))}, nil, nil},
		{"two body literals disagree", []Rule{exit, NewRule(NewAtom("q", V("X")), NewAtom("e", V("X")))}, nil, nil},
		{"fact against a body literal", []Rule{exit}, []Atom{NewAtom("e", C("a"))}, nil},
		{"two facts disagree", []Rule{exit}, []Atom{NewAtom("f", C("a")), NewAtom("f", C("a"), C("b"))}, nil},
	}
	for _, c := range cases {
		got, err := (&Program{Rules: c.rules, Facts: c.facts}).Arities()
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Arities() = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}

func TestDefaultExit(t *testing.T) {
	e := DefaultExit("p", 3, "base")
	if e.String() != "p(x1, x2, x3) :- base(x1, x2, x3)." {
		t.Errorf("DefaultExit = %v", e)
	}
	if err := ValidateExit(e, "p", 3); err != nil {
		t.Errorf("DefaultExit invalid: %v", err)
	}
}
