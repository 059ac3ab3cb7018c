// Command dlbench regenerates every experiment of the reproduction: the
// paper's figures (F1–F6) as graph structures, the worked examples
// (E1–E12) with their classifications, compiled plans and engine
// cross-checks, the theorem property sweeps (T), and the quantitative
// comparisons (Q1–Q7) between the paper's compiled plans and the
// bottom-up / magic-sets / parallel baselines. The served system's
// performance is measured by `go run ./bench`, not here.
//
// Usage:
//
//	dlbench [-experiment all|figures|examples|theorems|q1|q2|q3|q4|q5|q6|q7] [-quick] [-serve ADDR]
//
// Output is a plain-text report; EXPERIMENTS.md embeds a captured run.
// -serve exposes /metrics, /debug/vars and /debug/pprof/ on ADDR for the
// duration of the run, so CPU and heap profiles of any experiment (e.g.
// Q6) can be captured while it executes; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment group to run")
		quick      = flag.Bool("quick", false, "smaller sizes and fewer repetitions")
		serveAddr  = flag.String("serve", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while the experiments run")
	)
	flag.Parse()
	if *serveAddr != "" {
		addr, err := obs.Listen(*serveAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		fmt.Printf("serving http://%s/metrics /statz /debug/vars /debug/pprof/\n", addr)
	}

	r := &runner{quick: *quick}
	groups := map[string]func(){
		"figures":  r.figures,
		"examples": r.examples,
		"theorems": r.theorems,
		"q1":       r.q1,
		"q2":       r.q2,
		"q3":       r.q3,
		"q4":       r.q4,
		"q5":       r.q5,
		"q6":       r.q6,
		"q7":       r.q7,
	}
	order := []string{"figures", "examples", "theorems", "q1", "q2", "q3", "q4", "q5", "q6", "q7"}
	if *experiment == "all" {
		for _, g := range order {
			groups[g]()
		}
	} else if g, ok := groups[strings.ToLower(*experiment)]; ok {
		g()
	} else {
		fmt.Fprintf(os.Stderr, "dlbench: unknown experiment %q (want all, %s)\n",
			*experiment, strings.Join(order, ", "))
		os.Exit(2)
	}
	if r.failures > 0 {
		fmt.Printf("\n%d CHECK(S) FAILED\n", r.failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

type runner struct {
	quick    bool
	failures int
}

func (r *runner) section(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 74))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 74))
}

// check prints a PASS/FAIL row comparing the paper's claim to the measured
// outcome.
func (r *runner) check(id, claim string, ok bool, measured string) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		r.failures++
	}
	fmt.Printf("[%s] %-4s paper: %s\n            measured: %s\n", status, id, claim, measured)
}

func (r *runner) row(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}
