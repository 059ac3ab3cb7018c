package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The four plan-class fixtures. Each is one Datalog program that the auto
// planner compiles to one eval.PlanKind, plus a structured, seeded EDB:
// layered graphs whose shape (not whose random draws) fixes the cost and the
// answer count of every query, so a cold query costs the same whichever
// constant the seed happens to pick. Uniform random tuples do not have that
// property: the bounded class's cold median swung 16x between constant
// slices on them.

// Class names, in the order every per-class loop and report uses.
var classNames = []string{"tc_frontier", "bounded_union", "stable_parallel", "generic_parallel"}

const (
	hotQueries  = 32 // hot-set size per class (serve_mixed)
	coldQueries = 48 // distinct never-seen bound constants per class and repetition
)

// fixture is one plan class's generated input: everything a server or a twin
// is given, and nothing else.
type fixture struct {
	class    string
	strategy string   // the response's expected "strategy" field
	program  string   // rules only
	facts    string   // the EDB as "pred(a, b)." lines
	nfacts   int      // number of lines in facts
	hot      []string // serve_mixed's hot set; answers change under writes
	cold     []string // bound-first queries, each constant used once
	stream   []string // queries streamed with limit 10 (never cached)
	writes   []string // one fact per entry, each changing cached answers
}

// factWriter accumulates fact lines and counts them.
type factWriter struct {
	b strings.Builder
	n int
}

func (w *factWriter) add(pred string, args ...string) { w.line(fact(pred, args...)) }

func (w *factWriter) line(f string) {
	w.b.WriteString(f)
	w.b.WriteByte('\n')
	w.n++
}

func fact(pred string, args ...string) string {
	return pred + "(" + strings.Join(args, ", ") + ")."
}

func query(pred string, args ...string) string {
	return "?- " + pred + "(" + strings.Join(args, ", ") + ")."
}

func name(prefix string, idx ...int) string {
	s := prefix
	for i, v := range idx {
		if i > 0 {
			s += "_"
		}
		s += fmt.Sprint(v)
	}
	return s
}

// buildFixtures generates the four fixtures from the seed. writes is the
// number of write facts to prepare per class.
func buildFixtures(seed int64, writes int) []*fixture {
	gens := []func(*rand.Rand, int) *fixture{genTC, genBounded, genStable, genGeneric}
	out := make([]*fixture, len(gens))
	for i, g := range gens {
		// One independent stream per class, so resizing one fixture never
		// reshuffles another.
		out[i] = g(rand.New(rand.NewSource(seed*1000003+int64(i))), writes)
		out[i].class = classNames[i]
	}
	return out
}

// pick returns n distinct elements of pool in seeded order.
func pick(rng *rand.Rand, pool []string, n int) []string {
	if n > len(pool) {
		panic(fmt.Sprintf("bench: need %d constants, fixture has %d", n, len(pool)))
	}
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

// genTC: transitive closure over a layered DAG. tcSources source nodes each
// point into the first body layers; the body is tcLayers x tcWidth with
// tcDegree edges from every node into the next layer, so every source reaches
// most of the body (hundreds of rows) at the cost of one BFS over it plus the
// kernel's materialisation of the exit relation.
const (
	tcLayers  = 8
	tcWidth   = 128
	tcDegree  = 4
	tcSources = hotQueries + coldQueries + 16
)

func genTC(rng *rand.Rand, writes int) *fixture {
	f := &fixture{
		strategy: "tc-frontier",
		program:  "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
	}
	var w factWriter
	body := func(l, i int) string { return name("b", l, i) }
	for l := 0; l+1 < tcLayers; l++ {
		for i := 0; i < tcWidth; i++ {
			// The first edge keeps the column connected; the rest are seeded.
			w.add("e", body(l, i), body(l+1, i))
			for d := 1; d < tcDegree; d++ {
				w.add("e", body(l, i), body(l+1, rng.Intn(tcWidth)))
			}
		}
	}
	sources := make([]string, tcSources)
	for i := range sources {
		sources[i] = name("s", i)
		w.add("e", sources[i], body(0, rng.Intn(tcWidth)))
		w.add("e", sources[i], body(1, rng.Intn(tcWidth)))
	}
	f.facts, f.nfacts = w.b.String(), w.n
	f.splitQueries(rng, [][]string{sources}, func(c string) string { return query("p", c, "Y") })
	// Every second streamed query becomes the bound-bound goal-directed
	// form: one source, one last-layer node.
	for i := 1; i < len(f.stream); i += 2 {
		f.stream[i] = strings.Replace(f.stream[i], "Y", body(tcLayers-1, rng.Intn(tcWidth)), 1)
	}
	// A write hangs a new leaf off a last-layer node: every hot query that
	// reaches that node gains one row.
	for i := 0; i < writes; i++ {
		f.writes = append(f.writes, fact("e", body(tcLayers-1, rng.Intn(tcWidth)), name("w", i)))
	}
	return f
}

// genBounded: paper statement s10 (class D, rank bound 2). For a bound X the
// answers are e(X, Y) plus every b(Y) when X has a c-edge to a supported
// Y1; each source gets the same number of c- and e-edges, so every cold
// query enumerates the same number of tuples.
const (
	bdSources = hotQueries + coldQueries + 16
	bdMids    = 64  // Y1 values reachable through c
	bdB       = 300 // |b|: the rows every supported source returns
	bdC       = 3   // c-edges per source
	bdE       = 12  // direct e-answers per source
	bdMidE    = 3   // e-supporters per mid
)

func genBounded(rng *rand.Rand, writes int) *fixture {
	f := &fixture{
		strategy: "bounded-union",
		program:  "p(X, Y) :- b(Y), c(X, Y1), p(X1, Y1).\np(X, Y) :- e(X, Y).",
	}
	var w factWriter
	for i := 0; i < bdB; i++ {
		w.add("b", name("y", i))
	}
	for m := 0; m < bdMids; m++ {
		for k := 0; k < bdMidE; k++ {
			w.add("e", name("u", rng.Intn(bdSources)), name("m", m))
		}
	}
	sources := make([]string, bdSources)
	for i := range sources {
		sources[i] = name("x", i)
		for _, m := range rng.Perm(bdMids)[:bdC] {
			w.add("c", sources[i], name("m", m))
		}
		for k := 0; k < bdE; k++ {
			w.add("e", sources[i], name("d", i, k))
		}
	}
	f.facts, f.nfacts = w.b.String(), w.n
	f.splitQueries(rng, [][]string{sources}, func(c string) string { return query("p", c, "Y") })
	// A new b-value is a new row of every supported source's answer.
	for i := 0; i < writes; i++ {
		f.writes = append(f.writes, fact("b", name("w", i)))
	}
	return f
}

// genStable: paper statement s4a (class A3, arity 3). The three EDB relations
// are bijections between levels, so a seed tuple derives exactly one tuple per
// level and the fixpoint has stSeeds x (stLevels+1) tuples whatever the seed;
// position 1 of every level holds stVals values, which gives a bound first
// argument its stSeeds/stVals rows.
const (
	stLevels = 4
	stSeeds  = 1600
	stVals   = 32 // values per position and level; (stLevels+1) x stVals >= hot + cold + stream
)

func genStable(rng *rand.Rand, writes int) *fixture {
	f := &fixture{
		strategy: "stable-parallel",
		program:  "p(X1, X2, X3) :- a(X1, Y3), b(X2, Y1), c(Y2, X3), p(Y1, Y2, Y3).\np(X1, X2, X3) :- e(X1, X2, X3).",
	}
	var w factWriter
	// One step maps (y1, y2, y3) at level l to (A(y3), B(y1), C(y2)) at level
	// l+1. Value names carry position and level so the chains never collide.
	val := func(pos, l, i int) string { return name(string(rune('p'+pos)), l, i) }
	// Distinct level-0 seeds, uniform over position 1 and position 3.
	seen := make(map[[3]int]bool)
	newSeed := func(i int) string {
		for {
			k := [3]int{i % stVals, rng.Intn(stVals), (i / stVals) % stVals}
			if !seen[k] {
				seen[k] = true
				return fact("e", val(1, 0, k[0]), val(2, 0, k[1]), val(3, 0, k[2]))
			}
		}
	}
	for i := 0; i < stSeeds; i++ {
		w.line(newSeed(i))
	}
	firsts := make([][]string, stLevels+1) // position-1 values, level by level
	for l := 0; l <= stLevels; l++ {
		for i := 0; i < stVals; i++ {
			if l < stLevels {
				w.add("a", val(1, l+1, (i*7+l)%stVals), val(3, l, i))
				w.add("b", val(2, l+1, (i*5+l)%stVals), val(1, l, i))
				w.add("c", val(2, l, i), val(3, l+1, (i*3+l)%stVals))
			}
			firsts[l] = append(firsts[l], val(1, l, i))
		}
	}
	f.facts, f.nfacts = w.b.String(), w.n
	f.splitQueries(rng, firsts, func(c string) string { return query("p", c, "X2", "X3") })
	// A new seed climbs every level: one new row under one first argument
	// per level.
	for i := 0; i < writes; i++ {
		f.writes = append(f.writes, newSeed(rng.Intn(stVals*stVals)))
	}
	return f
}

// genGeneric: paper statement s11 (class E, dependent cycles). a and b are
// bijections between levels and c holds exactly the pairs the recursion
// needs, so the fixpoint has gnSeeds x (gnLevels+1) tuples; |a|+|b|+|c|+|e|
// is above the engine's 4096-tuple cutoff, so the fixpoint is auto-sharded
// when there is more than one core.
const (
	gnLevels = 3
	gnSeeds  = 2400
	gnVals   = 40 // x values per level; (gnLevels+1) x gnVals >= hot + cold + stream
)

func genGeneric(rng *rand.Rand, writes int) *fixture {
	f := &fixture{
		strategy: "generic-parallel",
		program:  "p(X, Y) :- a(X, X1), b(Y, Y1), c(X1, Y1), p(X1, Y1).\np(X, Y) :- e(X, Y).",
	}
	var w factWriter
	xv := func(l, i int) string { return name("x", l, i) }
	up := func(l, x int) int { return (x*7 + l) % gnVals }
	// chain loads the c- and b-facts that carry the row (x, y_0) up every
	// level: p(up(x), y_l+1) follows from p(x, y_l).
	chain := func(x int, y func(l int) string) {
		for l := 0; l < gnLevels; l++ {
			w.add("c", xv(l, x), y(l))
			w.add("b", y(l+1), y(l))
			x = up(l, x)
		}
	}
	firsts := make([][]string, gnLevels+1) // x values, level by level
	for l := 0; l <= gnLevels; l++ {
		for x := 0; x < gnVals; x++ {
			if l < gnLevels {
				w.add("a", xv(l+1, up(l, x)), xv(l, x))
			}
			firsts[l] = append(firsts[l], xv(l, x))
		}
	}
	for i := 0; i < gnSeeds; i++ {
		y := func(l int) string { return name("y", l, i) }
		w.add("e", xv(0, i%gnVals), y(0))
		chain(i%gnVals, y)
	}
	// A write is a new seed e(x, w_0_i). Its chain is loaded up front and
	// stays inert until the seed arrives; the one written fact then adds a
	// row under one first argument per level.
	for i := 0; i < writes; i++ {
		x := rng.Intn(gnVals)
		y := func(l int) string { return name("w", l, i) }
		f.writes = append(f.writes, fact("e", xv(0, x), y(0)))
		chain(x, y)
	}
	f.facts, f.nfacts = w.b.String(), w.n
	f.splitQueries(rng, firsts, func(c string) string { return query("p", c, "Y") })
	return f
}

// splitQueries deals the fixture's bound constants into the hot set, the
// cold set and the streamed set, so no constant is in two of them. groups
// holds the constants level by level; each group is shuffled by the seed and
// the groups are dealt round-robin, so every seed gives each set the same
// number of constants from each level. A streamed query's cost depends on its
// constant's level (how many rounds pass before the first matching row), so
// without this the streamed workload's work would change with the seed.
func (f *fixture) splitQueries(rng *rand.Rand, groups [][]string, q func(c string) string) {
	total := 0
	for i, g := range groups {
		groups[i] = pick(rng, g, len(g))
		total += len(g)
	}
	if total <= hotQueries+coldQueries {
		panic(fmt.Sprintf("bench: %s has %d constants, need more than %d", f.strategy, total, hotQueries+coldQueries))
	}
	for i, dealt := 0, 0; dealt < total; i++ {
		for _, g := range groups {
			if i >= len(g) {
				continue
			}
			switch {
			case dealt < hotQueries:
				f.hot = append(f.hot, q(g[i]))
			case dealt < hotQueries+coldQueries:
				f.cold = append(f.cold, q(g[i]))
			default:
				f.stream = append(f.stream, q(g[i]))
			}
			dealt++
		}
	}
}
