package eval

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/dlgen"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// The round driver centralizes what used to be separate loops, so the one
// thing it must pin is that the ways of consuming it agree: for one fixture
// per plan class, on one worker (every task inline) and on a pool of four
// (each frontier cut into workers*3 chunks), the materialized answer, the
// stream drained to exhaustion and the entry maintained across an insert
// batch all equal the naive oracle — and the materialized and streamed runs,
// on either worker count, do the same work (identical rounds and
// derivations), except a bound stream of a classified stable or generic
// plan, which runs the query's magic-sets program and derives what the magic
// strategy derives.

// oracleRows answers q by naive evaluation.
func oracleRows(t *testing.T, src Source, q ast.Query, db *storage.Database) []string {
	t.Helper()
	out, _, err := NaiveOpts(src.Program(), db, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := AnswerQuery(out, q)
	if err != nil {
		t.Fatal(err)
	}
	return relRows(ans)
}

// firstConstant names a constant present in the database, so that a query
// bound to it has work to do.
func firstConstant(db *storage.Database) string {
	for _, pred := range db.Preds() {
		if r := db.Rel(pred); r.Len() > 0 && r.Arity() > 0 {
			return db.Syms.Name(r.At(0)[0])
		}
	}
	return "n0"
}

// modeFixture is one row of TestDriverModesAgree: a source with its database
// and queries, the strategy every cold answer must report (servedKind: the
// all-free query of a TC plan runs generically), the write the
// maintained answer is carried across, and whether the maintenance pass
// carries it by a delta (else it must recompute — and still agree).
type modeFixture struct {
	name       string
	kind       PlanKind
	classless  bool
	build      func(t *testing.T) (Source, *storage.Database, []ast.Query)
	grow       func(t *testing.T, src Source, db *storage.Database)
	recomputed bool
}

// growEDB is the default write: three random tuples per EDB relation.
func growEDB(t *testing.T, src Source, db *storage.Database) {
	t.Helper()
	for _, pred := range src.Program().EDBPreds() {
		if err := storage.GenRandomRelation(db, pred, db.Rel(pred).Arity(), 6, 3, 99); err != nil {
			t.Fatal(err)
		}
	}
}

// paperFixture is a paper statement over a random database, asked all-free
// and bound on the second argument.
func paperFixture(id string, domain, tuples int) func(t *testing.T) (Source, *storage.Database, []ast.Query) {
	return func(t *testing.T) (Source, *storage.Database, []ast.Query) {
		sys := mustStatement(t, id).System()
		db, err := dlgen.RandomDB(sys, domain, tuples, 3)
		if err != nil {
			t.Fatal(err)
		}
		return sys, db, []ast.Query{queryFor(sys, 0, ""), queryFor(sys, 1, firstConstant(db))}
	}
}

// storeUnderHead inserts one tuple under the system's own predicate: a
// stored fact the rules must build on like on any derived one.
func storeUnderHead(t *testing.T, src Source, db *storage.Database) {
	t.Helper()
	sys := src.(*ast.RecursiveSystem)
	args := make([]string, sys.Arity())
	for i := range args {
		args[i] = "zz"
	}
	args[0] = firstConstant(db)
	if _, err := db.Insert(sys.Pred(), args...); err != nil {
		t.Fatal(err)
	}
}

// programFixture is a general program over explicit facts.
func programFixture(rules string, facts [][]string, queries ...string) func(t *testing.T) (Source, *storage.Database, []ast.Query) {
	return func(t *testing.T) (Source, *storage.Database, []ast.Query) {
		prog, _, err := parser.ParseProgram(rules)
		if err != nil {
			t.Fatal(err)
		}
		db := storage.NewDatabase()
		if err := insertAll(db, facts); err != nil {
			t.Fatal(err)
		}
		var qs []ast.Query
		for _, qt := range queries {
			q, err := parser.ParseQuery(qt)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		return prog, db, qs
	}
}

// modeFixtures is TestDriverModesAgree's table: one fixture per plan class,
// classless programs, and a fact stored under the planned predicate.
func modeFixtures() []modeFixture {
	chain := [][]string{{"e", "a", "b"}, {"e", "b", "c"}, {"e", "c", "d"}, {"e", "d", "b"}, {"e", "x", "y"}}
	moreEdges := func(t *testing.T, _ Source, db *storage.Database) {
		if err := insertAll(db, [][]string{{"e", "d", "x"}, {"e", "y", "z"}}); err != nil {
			t.Fatal(err)
		}
	}
	fixtures := []modeFixture{
		{name: "s1a", kind: PlanTC, build: paperFixture("s1a", 6, 14), grow: growEDB},
		{name: "s10", kind: PlanBounded, build: paperFixture("s10", 6, 14), grow: growEDB},
		{name: "s4a", kind: PlanStable, build: paperFixture("s4a", 6, 14), grow: growEDB},
		{name: "s11", kind: PlanGeneric, build: paperFixture("s11", 6, 14), grow: growEDB},
		// 4 500 EDB tuples: frontiers long enough to fill every chunk of the
		// pool, sparse enough that the fixpoint stays small.
		{name: "s12", kind: PlanGeneric, build: paperFixture("s12", 300, 900), grow: growEDB},

		// TC-shaped with an exit that is no stored relation renamed: planned
		// generically, class kept, in every adornment.
		{name: "tc-two-exits", kind: PlanGeneric, grow: growEDB, build: func(t *testing.T) (Source, *storage.Database, []ast.Query) {
			sys := mustSystem(t, "p(X, Y) :- a(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).", "p(X, Y) :- g(Y, X).")
			db := tcTestDB(t, "a", 6, 9, 4, 5)
			if err := storage.GenRandomRelation(db, "g", 2, 6, 4, 6); err != nil {
				t.Fatal(err)
			}
			return sys, db, parseQueries(t, "?- p(X, Y).", "?- p(n1, Y).", "?- p(X, n2).", "?- p(n1, n2).")
		}},

		// Programs that are not one linear system: planned classless.
		{name: "nonlinear", kind: PlanGeneric, classless: true, grow: moreEdges, build: programFixture(
			"t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).", chain,
			"?- t(X, Y).", "?- t(a, Y).")},
		{name: "derived-exit", kind: PlanGeneric, classless: true, grow: moreEdges, build: programFixture(
			"tc(X, Y) :- v(X, Y). tc(X, Y) :- v(X, Z), tc(Z, Y). v(X, Y) :- e(X, Y).", chain,
			"?- tc(X, Y).", "?- tc(a, Y).", "?- v(X, b).")},
		// examples/audit: negation over a closed stratum. The write grows a
		// negated predicate's input, so maintenance must recompute.
		{name: "negation", kind: PlanGeneric, classless: true, recomputed: true,
			build: programFixture(`
				reach(T, S) :- uses(T, S).
				reach(T, S) :- uses(T, M), dep(M, S).
				dep(X, Y) :- link(X, Y).
				dep(X, Y) :- link(X, Z), dep(Z, Y).
				staleCred(T, S) :- cred(T, S), not reach(T, S).
				orphan(S) :- service(S), not reached(S).
				reached(S) :- reach(T, S).`,
				[][]string{
					{"link", "gateway", "auth"}, {"link", "auth", "userdb"}, {"link", "reports", "warehouse"},
					{"uses", "web", "gateway"}, {"uses", "ml", "warehouse"},
					{"cred", "web", "userdb"}, {"cred", "web", "warehouse"}, {"cred", "ml", "userdb"},
					{"service", "gateway"}, {"service", "auth"}, {"service", "userdb"}, {"service", "reports"}, {"service", "warehouse"},
				},
				"?- staleCred(T, S).", "?- orphan(S).", "?- reach(web, S)."),
			grow: func(t *testing.T, _ Source, db *storage.Database) {
				if err := insertAll(db, [][]string{{"link", "warehouse", "userdb"}, {"uses", "web", "reports"}}); err != nil {
					t.Fatal(err)
				}
			}},
	}
	// A fact stored under the planned predicate itself: the TC kernel and the
	// expansion union assume there is none, so a TC or bounded plan must run
	// generically (class unchanged) and a stable plan runs its own rules, as
	// it always does — whether the fact is there when the plan compiles or
	// arrives in the maintained diff, which retires the bounded delta
	// (recompute) while the original rules carry on the program's view: a
	// stable plan's, and a TC plan's, which its all-free query made.
	for _, f := range []struct {
		id           string
		kind, stored PlanKind // stored: the kind that serves with p stored
	}{{"s1a", PlanTC, PlanGeneric}, {"s10", PlanBounded, PlanGeneric}, {"s4a", PlanStable, PlanStable}} {
		build := paperFixture(f.id, 6, 14)
		fixtures = append(fixtures,
			modeFixture{name: f.id + "/stored-at-compile", kind: f.stored, grow: growEDB,
				build: func(t *testing.T) (Source, *storage.Database, []ast.Query) {
					src, db, qs := build(t)
					storeUnderHead(t, src, db)
					return src, db, qs
				}},
			modeFixture{name: f.id + "/stored-in-diff", kind: f.kind, build: build, recomputed: f.kind == PlanBounded,
				grow: func(t *testing.T, src Source, db *storage.Database) {
					growEDB(t, src, db)
					storeUnderHead(t, src, db)
				}})
	}
	return fixtures
}

func TestDriverModesAgree(t *testing.T) {
	for _, f := range modeFixtures() {
		// Rounds and derivations per query, as the first worker count ran
		// them; the second must repeat them.
		work := make(map[string][2]int)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", f.name, workers), func(t *testing.T) {
				src, db, queries := f.build(t)
				opts := Opts{workers: workers}
				pl, rc := NewPlanner(), NewResultCache(0)

				snap := db.Snapshot()
				before := make(map[string]*storage.Relation)
				for _, q := range queries {
					want := oracleRows(t, src, q, snap.DB())
					if len(want) == 0 {
						t.Fatalf("%v: no answers; the fixture proves nothing", q)
					}
					mat, mst, _, err := rc.Answer(pl, src, q, snap, opts)
					if err != nil {
						t.Fatal(err)
					}
					before[q.String()] = mat
					if want := servedKind(f.kind, q); mst.Plan == nil || mst.Plan.Strategy != want.String() || (mst.Plan.Class == "") != f.classless {
						t.Fatalf("%v: plan %+v, want %v (classless=%v)", q, mst.Plan, want, f.classless)
					}
					if !rowsEqual(relRows(mat), want) {
						t.Errorf("%v: materialized %d rows, oracle %d", q, mat.Len(), len(want))
					}
					did := [2]int{mst.Rounds, mst.Derived}
					if first, ok := work[q.String()]; ok && first != did {
						t.Errorf("%v: rounds/derived %v on %d workers, %v on the first worker count", q, did, workers, first)
					}
					work[q.String()] = did
					p, _, err := pl.PlanForEpoch(src, q, snap.Epoch(), snap.DB(), opts)
					if err != nil {
						t.Fatal(err)
					}
					direct, _, err := p.AnswerOpts(q, snap.DB(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if !rowsEqual(relRows(direct), want) {
						t.Errorf("%v: Plan.AnswerOpts %d rows, oracle %d", q, direct.Len(), len(want))
					}
					it := p.Stream(q, snap.DB(), opts, 0)
					if got := drainStream(t, it); !rowsEqual(got, want) {
						t.Errorf("%v: streamed %d rows, oracle %d", q, len(got), len(want))
					}
					sst := it.Stats()
					same := sst.Rounds == mst.Rounds && sst.Derived == mst.Derived
					if magicStreamed(p, q, snap.DB()) {
						// A bound stream of a classified fixpoint plan runs the
						// query's magic-sets program instead: the derivations of
						// the magic strategy, whose magic set may be the whole
						// domain on a fixture this dense.
						_, rst, err := MagicSetsOpts(magicSource(t, p), q, snap.DB(), Opts{})
						if err != nil {
							t.Fatal(err)
						}
						same = sst.Derived == rst.Derived
					}
					if !same || sst.Plan.Strategy != mst.Plan.Strategy {
						t.Errorf("%v: streamed rounds=%d derived=%d %s, materialized rounds=%d derived=%d %s",
							q, sst.Rounds, sst.Derived, sst.Plan.Strategy, mst.Rounds, mst.Derived, mst.Plan.Strategy)
					}
				}

				old := snap
				f.grow(t, src, db)
				snap = db.Snapshot()
				res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: src, Opts: opts})
				// Carried is checked below, against the relations the cache serves.
				carried := res.Carried
				res.Carried = 0
				if want := (MaintResult{Maintained: len(queries)}); !f.recomputed && res != want {
					t.Fatalf("Maintain = %+v, want %+v", res, want)
				}
				if want := (MaintResult{Recomputed: len(queries)}); f.recomputed && res != want {
					t.Fatalf("Maintain = %+v, want %+v", res, want)
				}
				same := 0
				for _, q := range queries {
					got, st, cached, err := rc.Answer(pl, src, q, snap, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !cached || st.Maintained == f.recomputed {
						t.Fatalf("%v: cached=%v maintained=%v, want cached and maintained=%v", q, cached, st.Maintained, !f.recomputed)
					}
					if want := oracleRows(t, src, q, snap.DB()); !rowsEqual(relRows(got), want) {
						t.Errorf("%v: maintained %d rows, oracle %d", q, got.Len(), len(want))
					}
					if got == before[q.String()] {
						same++
					}
				}
				if carried != same {
					t.Errorf("Maintain reports %d carried, %d entries serve the relation they served before the write", carried, same)
				}
			})
		}
	}
}

// inflated copies the book with every estimate scaled by roundGrain: each
// round with work to estimate then sits at or above the grain and fans out,
// while the join orders — and so every enumeration — stay the same.
func inflated(b *orderBook) *orderBook {
	if b == nil {
		return nil
	}
	out := &orderBook{orders: make(map[string]*ruleOrder, len(b.orders)), cost: b.cost, desc: b.desc}
	for key, o := range b.orders {
		c := *o
		c.fullCost *= roundGrain
		c.seedCost = make([]float64, len(o.seedCost))
		for i, v := range o.seedCost {
			c.seedCost[i] = v * roundGrain
		}
		out.orders[key] = &c
	}
	return out
}

// streamInOrder drains a stream, keeping the order the rows came in.
func streamInOrder(t *testing.T, it Iterator) []string {
	t.Helper()
	defer it.Close()
	var rows []string
	for it.Next() {
		rows = append(rows, fmt.Sprint(it.Tuple()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func intAttr(sp *obs.Span, key string) int64 {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Int
		}
	}
	return 0
}

// TestDriverNarrowRoundsInline: streaming TestDriverModesAgree's bound
// fixpoint rows on a pool of four, a round whose estimate is below
// roundGrain runs on one worker, and the stream emits the same tuple
// sequence, with the same work counts, as a run whose inflated estimates
// force every round to fan out. A below-grain delta round runs one task per
// (rule, occurrence) over that occurrence's whole delta: its join spans
// are the fanned-out round's units before chunking, each of which the
// fanned-out round cuts into ⌈|delta|/per⌉ tasks of per = ⌈|delta|/(workers*3)⌉
// tuples (the last one shorter).
func TestDriverNarrowRoundsInline(t *testing.T) {
	const workers = 4
	narrowRounds := 0
	for _, f := range modeFixtures() {
		if f.kind != PlanStable && f.kind != PlanGeneric {
			continue
		}
		src, db, queries := f.build(t)
		snap := db.Snapshot()
		for _, q := range queries {
			if adorn.FromQuery(q).BoundCount() == 0 {
				continue
			}
			p, _, err := NewPlanner().PlanForEpoch(src, q, snap.Epoch(), snap.DB(), Opts{workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			forced := *p
			forced.book = inflated(p.book)
			if g := p.generic; g != nil {
				fg := *g
				fg.book = inflated(g.book)
				forced.generic = &fg
			}
			if m := p.magic; m != nil {
				forced.magic = &magicProgram{Program: m.Program, pred: m.pred, seed: m.seed, adorn: m.adorn, book: inflated(m.book)}
			}
			tr := obs.New("inline")
			it := p.Stream(q, snap.DB(), Opts{workers: workers, Tracer: tr}, 0)
			rows, st := streamInOrder(t, it), it.Stats()
			tr.Finish()
			fit := forced.Stream(q, snap.DB(), Opts{workers: workers}, 0)
			frows, fst := streamInOrder(t, fit), fit.Stats()
			if !slices.Equal(rows, frows) || st.Derived != fst.Derived || st.Visited != fst.Visited || len(st.Trace) != len(fst.Trace) {
				t.Errorf("%s %v: inline rounds emit %d rows (derived %d, visited %d, %d rounds), fanned out %d (%d, %d, %d)",
					f.name, q, len(rows), st.Derived, st.Visited, len(st.Trace), len(frows), fst.Derived, fst.Visited, len(fst.Trace))
				continue
			}
			// occs[rule] counts the rule's positive derived literals: the
			// most tasks one unchunked round can give it.
			rp, m := p.over(q, snap.DB(), true)
			prog := rp.fix.Program()
			if m != nil {
				prog = m.Program
			}
			occs := make(map[string]int)
			for _, r := range prog.Rules {
				for _, a := range r.Body {
					if !a.Neg && slices.ContainsFunc(prog.Rules, func(h ast.Rule) bool { return h.Head.Pred == a.Pred }) {
						occs[r.String()]++
					}
				}
			}
			spans := tr.Root().Find("fixpoint").Children()
			for i, r := range st.Trace {
				if !narrow(r.Estimated) {
					continue
				}
				narrowRounds++
				if r.Workers > 1 {
					t.Errorf("%s %v round %d: estimate %d ran on %d workers", f.name, q, r.Round, r.Estimated, r.Workers)
				}
				if r.Delta == 0 {
					continue // the seed round: one task per rule either way
				}
				cut := 0
				joins := spans[i].Children()
				perRule := make(map[string]int)
				for _, js := range joins {
					n := int(intAttr(js, "chunk"))
					per := max(1, (n+workers*3-1)/(workers*3))
					cut += (n + per - 1) / per
					perRule[spanAttr(js, "rule")]++
				}
				for rule, n := range perRule {
					if n > occs[rule] {
						t.Errorf("%s %v round %d: %d tasks for %s, which has %d derived literals", f.name, q, r.Round, n, rule, occs[rule])
					}
				}
				if r.Tasks != len(joins) || cut != fst.Trace[i].Tasks {
					t.Errorf("%s %v round %d: %d tasks (%d join spans) cut into %d, fanned out into %d",
						f.name, q, r.Round, r.Tasks, len(joins), cut, fst.Trace[i].Tasks)
				}
			}
		}
	}
	if narrowRounds == 0 {
		t.Fatal("no round fell below the grain: the test proves nothing")
	}
}

// TestDriverBudgetFallsBack: a view's delta pass whose sink runs out of
// budget is abandoned for a from-scratch recompute, for a fixpoint plan's
// all-free entry and for a TC plan's, which runs the generic plan alike.
func TestDriverBudgetFallsBack(t *testing.T) {
	for _, id := range []string{"s11", "s1a"} {
		t.Run(id, func(t *testing.T) {
			sys := mustStatement(t, id).System()
			db, err := dlgen.RandomDB(sys, 6, 14, 3)
			if err != nil {
				t.Fatal(err)
			}
			pl, rc := NewPlanner(), NewResultCache(0)
			q := queryFor(sys, 0, "")
			snap := db.Snapshot()
			if _, _, _, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil {
				t.Fatal(err)
			}
			old := snap
			// Three new exit tuples: the seed alone attempts three derivations.
			if err := insertAll(db, [][]string{{"e", "z1", "z2"}, {"e", "z2", "z3"}, {"e", "z3", "z1"}}); err != nil {
				t.Fatal(err)
			}
			snap = db.Snapshot()
			res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys, budget: 1})
			if res.Recomputed != 1 || res.Maintained != 0 {
				t.Fatalf("Maintain = %+v, want 1 recomputed under budget=1", res)
			}
			got, st, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if !cached || st.Maintained {
				t.Fatalf("cached=%v maintained=%v, want a cached recompute", cached, st.Maintained)
			}
			if want := oracleRows(t, sys, q, snap.DB()); !rowsEqual(relRows(got), want) {
				t.Errorf("recomputed fallback: %d rows, oracle %d", got.Len(), len(want))
			}
		})
	}
}
