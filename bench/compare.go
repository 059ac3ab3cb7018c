package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// -compare A.json B.json: A is the baseline, B the candidate. For every
// workload and end-to-end metric it prints both values, how much worse B is
// as a share of A, and the bound; a metric whose repetitions spread wider
// than its bound in either file is "unresolved" rather than unchanged, and a
// candidate worse than the bound is a breach. The spread is the quartile
// spread of the repetitions for a metric reported as their median, and the
// distance from the best to the third-best repetition for one reported as
// the best. When both files have the same seed, the counts that must repeat
// exactly are compared for equality.

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) find(workload string, trace bool) *runResult {
	for _, r := range f.Results {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric whose
// better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// exactRepeat reports whether the metric is one of the evaluation counts that
// a one-client run must reproduce exactly.
func exactRepeat(name string) bool {
	if !strings.HasPrefix(name, "eval.fixpoint.") {
		return false
	}
	return strings.HasSuffix(name, ".visited_per_op") || strings.HasSuffix(name, ".derived_per_op") ||
		strings.HasSuffix(name, ".rounds_per_op")
}

func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = loadResults(pathB); err == nil {
			return compareResults(stdout, a, b)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareResults(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "A: seed %d, %s, %d cores, revision %s\n", a.Env.Seed, a.Env.GoVersion, a.Env.NProc, a.Env.GitRevision)
	fmt.Fprintf(w, "B: seed %d, %s, %d cores, revision %s\n", b.Env.Seed, b.Env.GoVersion, b.Env.NProc, b.Env.GitRevision)
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "A", "B", "worse-by", "bound", "spread-A", "spread-B", "verdict")
	breaches := 0
	for _, name := range workloadNames {
		ra, rb := a.find(name, false), b.find(name, false)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEndMetrics {
			va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
			sa, sb := quartileSpread(ra.RepValues[d.name]), quartileSpread(rb.RepValues[d.name])
			if d.best {
				sa, sb = bestSpread(ra.RepValues[d.name], d.better), bestSpread(rb.RepValues[d.name], d.better)
			}
			by := worseBy(va, vb, d.better)
			verdict := "ok"
			switch {
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved"
			case by > d.bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				name, d.name, va, vb, 100*by, 100*d.bound, 100*sa, 100*sb, verdict)
		}
	}
	// The evaluation counts depend on the generated inputs, so they are only
	// held to repeat between runs of one seed.
	sameSeed := a.Env.Seed == b.Env.Seed
	for _, name := range workloadNames {
		ra, rb := a.find(name, true), b.find(name, true)
		if !sameSeed || ra == nil || rb == nil || ra.Clients != 1 {
			continue
		}
		for _, d := range perLayerMetrics {
			if !exactRepeat(d.name) {
				continue
			}
			if va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value; va != vb {
				fmt.Fprintf(w, "%-16s %s: %v in A, %v in B: must repeat exactly  BREACH\n", name, d.name, va, vb)
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	if sameSeed {
		fmt.Fprintln(w, "no breach; exact-repeat counts identical")
	} else {
		fmt.Fprintln(w, "no breach; seeds differ, exact-repeat counts not compared")
	}
	return 0
}
