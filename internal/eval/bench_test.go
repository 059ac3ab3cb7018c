package eval

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// BenchmarkConjEval measures the conjunctive-body evaluator on a three-way
// join with a pushed selection.
func BenchmarkConjEval(b *testing.B) {
	db := storage.NewDatabase()
	storage.GenRandomRelation(db, "r1", 2, 100, 2000, 1)
	storage.GenRandomRelation(db, "r2", 2, 100, 2000, 2)
	storage.GenRandomRelation(db, "r3", 2, 100, 2000, 3)
	rule := parser.MustParseRule("q(W) :- r1(X, Y), r2(Y, Z), r3(Z, W).")
	conj := CompileConj(db.Syms, rule.Body)
	x := conj.VarID("X")
	v, _ := db.Syms.Lookup("n1")
	rels := DBRels(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binding := conj.NewBinding()
		binding[x] = v
		conj.Eval(rels, binding, func([]storage.Value) bool { return true })
	}
}

// BenchmarkEngines measures the five strategies on one mid-size bound TC
// query (per-op numbers for cross-strategy comparison).
func BenchmarkEngines(b *testing.B) {
	sys := mustStatement(b, "s1a").System()
	db := storage.NewDatabase()
	storage.GenRandomGraph(db, "a", 256, 512, 5)
	db.Set("e", db.Rel("a").Clone())
	q, _ := parser.ParseQuery("?- p(n0, Y).")
	for _, s := range Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Answer(s, sys, q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSemiNaive compares the round driver on 1 worker (what
// SemiNaiveOpts runs) with the full pool on full transitive-closure
// materialization — the delta fan-out's target workload. On a single-CPU
// host the pool is expected to tie with (or slightly trail) 1 worker; the
// speedup shows with 4+ cores.
func BenchmarkParallelSemiNaive(b *testing.B) {
	prog, _, err := parser.ParseProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	db := storage.NewDatabase()
	storage.GenRandomGraph(db, "e", 300, 600, 7)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ParallelSemiNaiveOpts(prog, db, Opts{workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaterializeExit measures exit-relation materialization with a
// join body.
func BenchmarkMaterializeExit(b *testing.B) {
	rec := parser.MustParseRule("p(X, Y) :- a(X, Z), p(Z, Y).")
	exit := parser.MustParseRule("p(X, Y) :- l(X, W), r(W, Y).")
	sys, err := ast.NewRecursiveSystem(rec, exit)
	if err != nil {
		b.Fatal(err)
	}
	db := storage.NewDatabase()
	storage.GenRandomRelation(db, "l", 2, 200, 2000, 1)
	storage.GenRandomRelation(db, "r", 2, 200, 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaterializeExit(sys, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStableDepth measures the per-depth cost of the stable σ-chain
// iterate as the chain length grows.
func BenchmarkStableDepth(b *testing.B) {
	sys := mustStatement(b, "s1a").System()
	for _, n := range []int{100, 1000} {
		db := storage.NewDatabase()
		storage.GenChain(db, "a", n)
		db.Set("e", db.Rel("a").Clone())
		q, _ := parser.ParseQuery("?- p(n0, Y).")
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ClassEvalOpts(sys, q, db, Opts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
