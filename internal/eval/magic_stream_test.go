package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/dlgen"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// A bound stream of a classified stable or generic plan runs the query's
// magic-sets program on the round driver instead of the whole fixpoint.
// These tests pin that it answers like naive evaluation in every adornment,
// limit and stored-fact case, that it does less work when the constant is
// selective, and that it never interns a query constant.

// magicStreamed reports whether a stream of q on p over db runs the magic
// program: a bound query of a classified stable or generic plan, with
// nothing stored under the planned predicate.
func magicStreamed(p *Plan, q ast.Query, db *storage.Database) bool {
	p, _ = p.over(q, db, false)
	_, classified := p.fix.(*ast.RecursiveSystem)
	stored := db.Rel(q.Atom.Pred)
	return classified && (p.Kind == PlanStable || p.Kind == PlanGeneric) &&
		adorn.FromQuery(q).BoundCount() > 0 && (stored == nil || stored.Len() == 0)
}

// magicSource is the system a classified fixpoint plan's bound-adornment
// magic program is rewritten from: the Theorem-2/4 stabilized system for a
// stable plan, the plan's own rules for a generic one.
func magicSource(t *testing.T, p *Plan) *ast.RecursiveSystem {
	t.Helper()
	sys := p.fix.(*ast.RecursiveSystem)
	if p.Kind != PlanStable {
		return sys
	}
	res, err := classify.Classify(sys.Recursive)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := rewrite.ToStableClassified(sys, res)
	if err != nil {
		t.Fatal(err)
	}
	return stable
}

// streamSpan plans q through the planner, as the server's streamed miss
// does, runs one traced stream to exhaustion and returns its rows, stats and
// fixpoint span (nil when none ran).
func streamSpan(t *testing.T, pl *Planner, src Source, q ast.Query, snap *storage.Snapshot, limit int) ([]string, Stats, *obs.Span) {
	t.Helper()
	tr := obs.New("stream")
	opts := Opts{Tracer: tr}
	p, _, err := pl.PlanForEpoch(src, q, snap.Epoch(), snap.DB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	it := p.Stream(q, snap.DB(), opts, limit)
	rows := drainStream(t, it)
	tr.Finish()
	return rows, it.Stats(), tr.Root().Find("fixpoint")
}

func spanAttr(sp *obs.Span, key string) string {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

// boundQueries asks every adornment with a bound position twice: on the
// constants of the all-free query's first answer (so it has answers), and
// on those of a middle answer rotated by one position (mostly none).
func boundQueries(sys *ast.RecursiveSystem, answers *storage.Relation, syms *storage.Symbols) []ast.Query {
	var qs []ast.Query
	for _, a := range adorn.AllAdornments(sys.Arity()) {
		if a.BoundCount() == 0 {
			continue
		}
		for shift, row := range []storage.Tuple{answers.At(0), answers.At(answers.Len() / 2)} {
			args := make([]ast.Term, sys.Arity())
			for i := range args {
				args[i] = ast.V(fmt.Sprintf("Q%d", i))
				if a[i] {
					args[i] = ast.C(syms.Name(row[(i+shift)%len(row)]))
				}
			}
			qs = append(qs, ast.Query{Atom: ast.NewAtom(sys.Pred(), args...)})
		}
	}
	return qs
}

// TestMagicStreamAgreesOnPaperCorpus: through the Planner, for every paper
// statement planned stable or generic, every adornment with a bound
// position, limits 0, 1 and 10, and nothing or one tuple stored under the
// planned predicate, a stream answers like NaiveOpts: all answers with no
// limit, else min(limit, |answers|) distinct answers with Truncated exactly
// when more existed. The magic program runs exactly when nothing is stored,
// reports the plan's strategy, and labels its fixpoint span.
func TestMagicStreamAgreesOnPaperCorpus(t *testing.T) {
	covered := map[PlanKind]bool{}
	for _, s := range paper.All() {
		sys := s.System()
		plan, err := CompilePlanOpts(sys, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if plan.Kind != PlanStable && plan.Kind != PlanGeneric {
			continue
		}
		covered[plan.Kind] = true
		for _, stored := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stored=%v", s.ID, stored), func(t *testing.T) {
				domain, size := 6, 14
				if sys.Arity() > 4 {
					domain, size = 4, 6 // 2^7 adornments of a stabilized s7
				}
				db, err := dlgen.RandomDB(sys, domain, size, 5)
				if err != nil {
					t.Fatal(err)
				}
				all, _, err := NaiveOpts(sys.Program(), db, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				queries := boundQueries(sys, all.Rel(sys.Pred()), db.Syms)
				if stored {
					storeUnderHead(t, sys, db)
					if all, _, err = NaiveOpts(sys.Program(), db, Opts{}); err != nil {
						t.Fatal(err)
					}
				}
				snap := db.Snapshot()
				pl := NewPlanner()
				for _, q := range queries {
					ans, err := AnswerQuery(all, q)
					if err != nil {
						t.Fatal(err)
					}
					want := relRows(ans)
					p, _, err := pl.planFor(sys, q, snap.DB(), Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if got := magicStreamed(p, q, snap.DB()); got == stored {
						t.Fatalf("%v: magic program %v with stored=%v", q, got, stored)
					}
					rp, _ := p.over(q, snap.DB(), false)
					for _, limit := range []int{0, 1, 10} {
						rows, st, fix := streamSpan(t, pl, sys, q, snap, limit)
						if st.Plan == nil || st.Plan.Strategy != rp.Kind.String() {
							t.Fatalf("%v: strategy %+v, want %v", q, st.Plan, rp.Kind)
						}
						wantMagic := adorn.FromQuery(q).String()
						if stored {
							wantMagic = ""
						}
						if fix == nil || spanAttr(fix, "magic") != wantMagic {
							t.Errorf("%v: fixpoint span %v, want magic=%q", q, fix, wantMagic)
						}
						n := len(want)
						if limit > 0 && limit < n {
							n = limit
						}
						if len(rows) != n || !subsetOf(rows, want) || (limit == 0 && !rowsEqual(rows, want)) {
							t.Errorf("%v limit %d: streamed %v, naive %v", q, limit, rows, want)
						}
						if trunc := limit > 0 && len(want) > limit; st.Truncated != trunc {
							t.Errorf("%v limit %d: truncated=%v with %d answers", q, limit, st.Truncated, len(want))
						}
					}
				}
			})
		}
	}
	if !covered[PlanStable] || !covered[PlanGeneric] {
		t.Fatalf("corpus covered %v, want stable and generic plans", covered)
	}
}

// subsetOf reports whether every row of a is a distinct row of b (both
// sorted).
func subsetOf(a, b []string) bool {
	j := 0
	for i, r := range a {
		if i > 0 && a[i-1] == r {
			return false
		}
		for j < len(b) && b[j] < r {
			j++
		}
		if j == len(b) || b[j] != r {
			return false
		}
	}
	return true
}

// TestMagicStreamDoesLessWork: on s4a (stable) and s11 (generic), a bound
// stream derives strictly fewer tuples than the materialized fixpoint the
// same query selects from, on a database where the constant reaches only
// part of the domain; and the stabilized s4a rewrite is the σ-chain on its
// unit cycle: one adornment, whose propagation joins the three literals of
// the chain instead of the system's nine.
func TestMagicStreamDoesLessWork(t *testing.T) {
	for _, id := range []string{"s4a", "s11"} {
		sys := mustStatement(t, id).System()
		db, err := dlgen.RandomDB(sys, 40, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := NaiveOpts(sys.Program(), db, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		first := db.Syms.Name(all.Rel(sys.Pred()).At(0)[0])
		q := queryFor(sys, 1, first)
		snap := db.Snapshot()
		pl := NewPlanner()
		_, mst, _, err := NewResultCache(0).Answer(pl, sys, q, snap, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		rows, sst, _ := streamSpan(t, pl, sys, q, snap, 0)
		if want := oracleRows(t, sys, q, snap.DB()); len(want) == 0 || !rowsEqual(rows, want) {
			t.Fatalf("%s %v: streamed %d rows, naive %d", id, q, len(rows), len(want))
		}
		if sst.Derived >= mst.Derived {
			t.Errorf("%s %v: streamed derived %d, materialized %d; want strictly fewer", id, q, sst.Derived, mst.Derived)
		}
	}
	p, err := CompilePlanOpts(mustStatement(t, "s4a").System(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	m := rewriteMagic(magicSource(t, p), adorn.Adornment{true, false, false})
	if prop := m.Rules[0]; m.adornments != 1 || len(prop.Body) != 4 || p.Kind != PlanStable {
		t.Errorf("stabilized s4a: %v plan, %d adornments, propagation %v", p.Kind, m.adornments, prop)
	}
}

// countSpans counts the spans named name in the tree under sp.
func countSpans(sp *obs.Span, name string) int {
	if sp == nil {
		return 0
	}
	n := 0
	if sp.Name() == name {
		n++
	}
	for _, c := range sp.Children() {
		n += countSpans(c, name)
	}
	return n
}

// TestMagicProgramCompiledOnce: the magic-sets program of a bound query is
// part of its plan. Two streams of one bound query through one Planner run
// the same *magicProgram, with its seed-aware order book, and the same
// compiled rules; the rewrite happens under the first stream's plan-cache
// miss and never on the second.
func TestMagicProgramCompiledOnce(t *testing.T) {
	for _, id := range []string{"s4a", "s11"} {
		sys := mustStatement(t, id).System()
		db, err := dlgen.RandomDB(sys, 6, 14, 3)
		if err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		q := queryFor(sys, 1, firstConstant(db))
		pl := NewPlanner()
		var progs []*magicProgram
		var compiled []*compiledProgram
		for run := 0; run < 2; run++ {
			tr := obs.New("stream")
			opts := Opts{Tracer: tr}
			p, hit, err := pl.PlanForEpoch(sys, q, snap.Epoch(), snap.DB(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if p.magic == nil || p.magic.book == nil || p.magic.adorn != adorn.FromQuery(q).String() {
				t.Fatalf("%s run %d: plan carries magic program %+v", id, run, p.magic)
			}
			drainStream(t, p.Stream(q, snap.DB(), opts, 0))
			tr.Finish()
			if got, want := countSpans(tr.Root(), "magic-rewrite"), 1-run; got != want || hit != (run == 1) {
				t.Errorf("%s run %d: %d magic-rewrite spans (plan cache hit %v), want %d", id, run, got, hit, want)
			}
			if spanAttr(tr.Root().Find("fixpoint"), "magic") != "dv"+strings.Repeat("v", sys.Arity()-2) {
				t.Errorf("%s run %d: the stream did not run the magic program", id, run)
			}
			progs, compiled = append(progs, p.magic), append(compiled, p.magic.compiled.Load())
		}
		if progs[0] != progs[1] || compiled[0] == nil || compiled[0] != compiled[1] {
			t.Errorf("%s: the second stream ran another magic program or compiled it again", id)
		}
	}
}

// TestMagicProgramConcurrentStreams: streams of one plan run concurrently
// on two databases — two symbol tables, so each compile replaces the
// other's in the magic program's cache — and each answers like naive
// evaluation on its own database.
func TestMagicProgramConcurrentStreams(t *testing.T) {
	sys := mustStatement(t, "s11").System()
	var dbs []*storage.Database
	var want [][]string
	for seed := int64(1); seed <= 2; seed++ {
		db, err := dlgen.RandomDB(sys, 6, 14, seed)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db.Snapshot().DB()) // readers share a snapshot, as the server's do
	}
	q := queryFor(sys, 1, firstConstant(dbs[0]))
	for _, db := range dbs {
		want = append(want, oracleRows(t, sys, q, db))
	}
	p, _, err := NewPlanner().PlanForEpoch(sys, q, 0, dbs[0], Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				it := p.Stream(q, dbs[i], Opts{}, 0)
				var got []string
				for it.Next() {
					got = append(got, fmt.Sprint(it.Tuple()))
				}
				it.Close()
				sort.Strings(got)
				if it.Err() != nil || !rowsEqual(got, want[i]) {
					t.Errorf("database %d: streamed %d rows (err %v), naive %d", i, len(got), it.Err(), len(want[i]))
				}
			}
		}(g % 2)
	}
	wg.Wait()
}

// TestMagicStreamUnknownConstant: a constant the database never interned
// ends a bound stream at once, derives nothing and interns nothing — on the
// reference magic strategy too.
func TestMagicStreamUnknownConstant(t *testing.T) {
	for _, id := range []string{"s4a", "s11"} {
		sys := mustStatement(t, id).System()
		db, err := dlgen.RandomDB(sys, 6, 14, 1)
		if err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		before := db.Syms.Len()
		q := queryFor(sys, 1, "never-seen")
		rows, st, fix := streamSpan(t, NewPlanner(), sys, q, snap, 10)
		if len(rows) != 0 || st.Derived != 0 || st.Truncated || fix != nil {
			t.Errorf("%s: %d rows, derived %d, truncated %v, fixpoint ran %v", id, len(rows), st.Derived, st.Truncated, fix != nil)
		}
		if ans, _, err := MagicSetsOpts(sys, q, db, Opts{}); err != nil || ans.Len() != 0 {
			t.Errorf("%s: magic strategy %v rows, err %v", id, ans, err)
		}
		if n := db.Syms.Len(); n != before {
			t.Errorf("%s: %d symbols after, %d before", id, n, before)
		}
	}
}

// TestMagicStreamExitHeadConstant: a query constant that only an exit
// rule's head carries is the program's, not the query's: the bound stream
// interns it as evaluating the program would, and finds its answers.
func TestMagicStreamExitHeadConstant(t *testing.T) {
	sys := mustSystem(t, "p(X, Y) :- a(X, X1), b(Y, Y1), c(X1, Y1), p(X1, Y1).", "p(X, k) :- e(X).")
	db := storage.NewDatabase()
	if err := insertAll(db, [][]string{{"e", "n1"}, {"a", "n0", "n1"}, {"b", "n2", "n3"}, {"c", "n1", "n3"}}); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	q := queryFor(sys, 2, "k")
	rows, st, fix := streamSpan(t, NewPlanner(), sys, q, snap, 0)
	want := oracleRows(t, sys, q, snap.DB()) // interns k: after the stream
	if len(want) != 1 || !rowsEqual(rows, want) || st.Plan.Strategy != PlanGeneric.String() || fix == nil || spanAttr(fix, "magic") != "vd" {
		t.Errorf("streamed %v (%+v, span %v), naive %v", rows, st.Plan, fix, want)
	}
}

// TestStreamConstantFromProgramFact: a query constant that only the
// program's own facts introduce is interned while the fixpoint runs; the
// stream must still find its answers.
func TestStreamConstantFromProgramFact(t *testing.T) {
	prog, _, err := parser.ParseProgram("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y). p(c, d).")
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if _, err := db.Insert("e", "a", "b"); err != nil {
		t.Fatal(err)
	}
	p, err := CompilePlanOpts(prog, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("?- p(c, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainStream(t, p.Stream(q, db, Opts{}, 0)); len(rows) != 1 {
		t.Errorf("streamed %v, want the program fact p(c, d)", rows)
	}
}
