// Package repro is a from-scratch Go reproduction of
//
//	Cheong Youn, Lawrence J. Henschen, Jiawei Han:
//	"Classification of Recursive Formulas in Deductive Databases",
//	SIGMOD 1988.
//
// The library lives under internal/: the deductive-database substrate
// (ast, parser, storage, eval — including a parallel semi-naive
// worker-pool engine with per-round metrics), the paper's contribution
// (graph, igraph, classify, rewrite, adorn, plan), the facade (core) and
// the query server (server, obs). Four commands (cmd/dlclass, cmd/dlrun,
// cmd/dlbench, cmd/dlserve) and five runnable examples (examples/...) sit
// on top. bench_test.go in this directory
// holds one benchmark per figure and worked example of the paper plus the
// quantitative experiments; see DESIGN.md and EXPERIMENTS.md.
package repro
