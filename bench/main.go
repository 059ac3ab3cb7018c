// Command bench is the repository's benchmark: one process that generates its
// inputs from a seed, serves the four plan classes behind real loopback
// listeners, drives four closed-loop workloads against them, checks the
// answers against naive evaluation, and prints every metric by name with its
// unit. See README.md in this directory.
//
//	go run ./bench                                   all workloads, traced and not
//	go run ./bench -workload serve_cold -trace 1     one workload's per-layer metrics
//	go run ./bench -compare A.json B.json            two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// workloadNames in the order they run and report.
var workloadNames = []string{"serve_mixed", "serve_cold", "stream_firstk", "classify_corpus"}

// env records where and how a result file was measured.
type env struct {
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitRevision string  `json:"git_revision"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	// Claim is null: this harness claims no gain, its numbers are the
	// baseline later changes cite by workload and metric name.
	Claim   *string      `json:"claim"`
	Env     env          `json:"env"`
	Results []*runResult `json:"results"`
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git
	}
	return strings.TrimSpace(string(out))
}

// run measures one workload in one mode on the harness; a traced run's spans
// go to rec.
func (h *harness) run(name string, trace bool, rec *recorder) (*runResult, error) {
	h.attempted, h.failed, h.failures = 0, 0, nil
	var res *runResult
	var err error
	switch {
	case name == "classify_corpus" && trace:
		res, err = h.runCorpusTraced(rec)
	case name == "classify_corpus":
		res, err = h.runCorpus()
	default:
		var w *servedWorkload
		for _, cand := range servedWorkloads {
			if cand.name == name {
				w = cand
			}
		}
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		if trace {
			res, err = h.runServedTraced(w, rec)
		} else {
			res, err = h.runServed(w)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = h.attempted, h.failed, h.failures
	return res, nil
}

// printResult lists the run's metrics, one per line, name and unit.
func printResult(w io.Writer, r *runResult) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d client(s), %d ops x %d repetitions, %.1f s, %d attempted, %d failed\n",
		r.Workload, mode, r.Clients, r.OpsPerRep, r.Reps, r.WallS, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-52s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// summaryLine is the last line of standard output: the run's verdict and
// metrics as one JSON object.
func summaryLine(w io.Writer, attempted, failed int, metrics map[string]metric) {
	line, _ := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all four, each untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "timed work per run, in seconds")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "", "write the result file (environment, metrics, repetition values) here")
	spans := fs.String("spans", "", "write the traced runs' spans here as JSON (one file per workload when all run)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}

	h, err := newHarness(config{seed: *seed, seconds: *seconds, scale: 1, minReps: minRepetitions})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer h.close()
	file := &resultFile{Env: env{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: gitRevision(), Seed: *seed, Seconds: *seconds,
	}}
	type job struct {
		name  string
		trace bool
	}
	var jobs []job
	if *workload != "" {
		jobs = []job{{*workload, *trace == 1}}
	} else {
		for _, name := range workloadNames {
			jobs = append(jobs, job{name, false}, job{name, true})
		}
	}
	attempted, failed := 0, 0
	metrics := map[string]metric{}
	for _, j := range jobs {
		rec := newRecorder()
		res, err := h.run(j.name, j.trace, rec)
		if err == nil && j.trace && *spans != "" {
			path := *spans
			if *workload == "" {
				// One span file per workload when all of them run.
				path = strings.TrimSuffix(path, ".json") + "." + j.name + ".json"
			}
			err = rec.write(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", j.name, err)
			return 1
		}
		printResult(stdout, res)
		file.Results = append(file.Results, res)
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range res.Metrics {
			if *workload == "" {
				name = j.name + "/" + name
			}
			metrics[name] = m
		}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	summaryLine(stdout, attempted, failed, metrics)
	if failed > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
