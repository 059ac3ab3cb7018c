package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dlgen"
	"repro/internal/paper"
	"repro/internal/storage"
)

// paperSource renders a paper statement's recursive rule, the exit rule
// p(X1, ..., Xn) :- e(X1, ..., Xn) and a random database of its EDB as
// dlserve source.
func paperSource(t *testing.T, id string) string {
	t.Helper()
	s, ok := paper.ByID(id)
	if !ok {
		t.Fatalf("unknown statement %s", id)
	}
	sys := s.System()
	db, err := dlgen.RandomDB(sys, 6, 14, 2)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]string, sys.Arity())
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n%s(%s) :- e(%[3]s).\n", sys.Recursive, sys.Pred(), strings.Join(vars, ", "))
	for _, pred := range db.Preds() {
		db.Rel(pred).Each(func(tp storage.Tuple) bool {
			names := make([]string, len(tp))
			for i, v := range tp {
				names[i] = db.Syms.Name(v)
			}
			fmt.Fprintf(&b, "%s(%s).\n", pred, strings.Join(names, ", "))
			return true
		})
	}
	return b.String()
}

// boundQuery asks pred/arity with its first argument bound to c.
func boundQuery(pred string, arity int, c string) string {
	args := []string{c}
	for i := 1; i < arity; i++ {
		args = append(args, fmt.Sprintf("Q%d", i))
	}
	return fmt.Sprintf("?- %s(%s).", pred, strings.Join(args, ", "))
}

// TestServerStreamUnseenConstants: streamed bound queries on constants the
// database never saw end at once, empty and not truncated, and intern
// nothing into the snapshot's shared symbols.
func TestServerStreamUnseenConstants(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{"s4a", "s11"} {
		s, err := New(paperSource(t, id), Config{})
		if err != nil {
			t.Fatal(err)
		}
		before := s.snap.Load().Syms().Len()
		for i := 0; i < 100; i++ {
			q := boundQuery(s.sys.Pred(), s.sys.Arity(), fmt.Sprintf("ghost%d", i))
			res, err := s.StreamQuery(ctx, q, 10, nil, func([]string) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != 0 || res.Truncated || res.Derived != 0 {
				t.Fatalf("%s %s: count=%d truncated=%v derived=%d", id, q, res.Count, res.Truncated, res.Derived)
			}
		}
		if after := s.snap.Load().Syms().Len(); after != before {
			t.Errorf("%s: %d symbols after 100 unseen constants, %d before", id, after, before)
		}
	}
}
