// Audit: stratified negation on top of the recursive substrate. An access
// audit derives which services each team can reach through the dependency
// graph (transitive closure — the paper's stable class A recursion), then
// uses negation-as-failure over the completed lower stratum to flag
// policy violations: teams holding credentials for services they cannot
// reach, and services no team reaches at all.
//
// The recursive layer is pure positive (the paper's fragment); the audit
// layer on top uses the substrate's stratified-negation extension, which
// the bottom-up engines evaluate stratum by stratum.
//
// Run with: go run ./examples/audit
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

func main() {
	prog, queries, err := parser.ParseProgram(`
		% Stratum 0: reachability through the dependency graph.
		reach(T, S) :- uses(T, S).
		reach(T, S) :- uses(T, M), dep(M, S).
		dep(X, Y) :- link(X, Y).
		dep(X, Y) :- link(X, Z), dep(Z, Y).

		% Stratum 1: audit findings via negation over the closed stratum.
		staleCred(T, S) :- cred(T, S), not reach(T, S).
		orphan(S) :- service(S), not reached(S).
		reached(S) :- reach(T, S).

		?- staleCred(T, S).
		?- orphan(S).
	`)
	if err != nil {
		log.Fatal(err)
	}

	db := storage.NewDatabase()
	must := func(_ bool, err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Service dependency links.
	for _, e := range [][2]string{
		{"gateway", "auth"}, {"auth", "userdb"},
		{"gateway", "billing"}, {"billing", "ledger"},
		{"reports", "warehouse"},
	} {
		must(db.Insert("link", e[0], e[1]))
	}
	// Direct service usage by teams.
	for _, e := range [][2]string{
		{"web", "gateway"}, {"finance", "billing"}, {"ml", "warehouse"},
	} {
		must(db.Insert("uses", e[0], e[1]))
	}
	// Issued credentials (some stale).
	for _, e := range [][2]string{
		{"web", "userdb"}, {"web", "warehouse"},
		{"finance", "ledger"}, {"ml", "userdb"},
	} {
		must(db.Insert("cred", e[0], e[1]))
	}
	for _, s := range []string{"gateway", "auth", "userdb", "billing", "ledger", "warehouse", "quarantine"} {
		must(db.Insert("service", s))
	}

	// Stratified evaluation: reach/dep saturate first, then the audit
	// rules read the completed relations through negation.
	out, stats, err := eval.SemiNaiveOpts(&ast.Program{Rules: prog.Rules}, db, eval.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stratified evaluation: %v\n\n", stats)
	for _, q := range queries {
		ans, err := eval.AnswerQuery(out, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v  (%d findings)\n", q, ans.Len())
		var lines []string
		ans.Each(func(t storage.Tuple) bool {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = db.Syms.Name(v)
			}
			lines = append(lines, "  "+q.Atom.Pred+"("+strings.Join(parts, ", ")+")")
			return true
		})
		sort.Strings(lines)
		fmt.Println(strings.Join(lines, "\n"))
		fmt.Println()
	}

	// Cross-check the two bottom-up engines.
	ref, _, err := eval.NaiveOpts(&ast.Program{Rules: prog.Rules}, db, eval.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	agree := true
	for _, pred := range []string{"reach", "staleCred", "orphan"} {
		if !ref.Rel(pred).Equal(out.Rel(pred)) {
			agree = false
		}
	}
	fmt.Println("naive and semi-naive agree:", agree)
}
