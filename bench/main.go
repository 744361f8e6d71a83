// Command bench is the repository benchmark. It generates every input from
// a seed, runs one workload (or all four) against the engine and an
// in-process server driven through its HTTP handler, checks every output
// against a from-scratch reference, and prints each metric as
//
//	workload metric value unit
//
// followed by one JSON result line. Build and run it from the repository
// root with bench/run.sh; README.md describes the workloads and metrics.
//
//	bash bench/run.sh -workload ingest -seed 7 -seconds 15 -trace 0 -out r.json
//	bash bench/run.sh compare -base a.json,b.json -head c.json,d.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what every workload run receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string // WAL directories and other run files
	log     io.Writer
}

// result is one workload run's outcome.
type result struct {
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   []metric // the catalog of the run's mode (end-to-end or per-layer)
	Extra     []metric // also printed and written to -out, never gated
	Failures  []string
	Spans     []span
}

// finish copies the tally into the result.
func (r *result) finish(tl *tally) {
	r.Attempted, r.Failed = tl.attempted.Load(), tl.failed.Load()
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
	r.Failures = tl.failures
	r.Extra = append(r.Extra, metric{Name: "error_ratio", Value: float64(r.Failed) / float64(r.Attempted), Unit: "ratio"})
}

// sorted returns the values as metrics in name order, with units read off
// the names.
func (v values) sorted() []metric {
	out := make([]metric, 0, len(v))
	for name, val := range v {
		out = append(out, metric{Name: name, Value: val, Unit: unitOf(name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".n"):
		return "count"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []struct {
	name string
	run  func(*env) (*result, error)
}{
	{"solve", runSolve},
	{"ingest", func(e *env) (*result, error) { return runServing(e, "ingest", ingestConfig) }},
	{"mixed", func(e *env) (*result, error) { return runServing(e, "mixed", mixedConfig) }},
	{"fanout", func(e *env) (*result, error) { return runServing(e, "fanout", fanoutConfig) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: solve, ingest, mixed, fanout, or all")
		seed    = fs.Int64("seed", 20200409, "seed every input is generated from")
		seconds = fs.Int("seconds", 15, "length of the measured phase, in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced phase after the measured one and reports per-layer metrics")
		out     = fs.String("out", "", "also write the results to this JSON file (spans of a trace run go next to it)")
		workdir = fs.String("workdir", ".bench_build", "directory for the run's WAL directories")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be ≥ 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir, log: stderr}
	var results []*result
	for _, i := range selected {
		fmt.Fprintf(stderr, "bench: %s: seed %d, %ds measured, trace %d\n", workloads[i].name, *seed, *seconds, *trace)
		r, err := runSteady(e, workloads[i].name, workloads[i].run, realClock{}, readMachineTimes)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", workloads[i].name, err)
			return 1
		}
		results = append(results, r)
	}

	correct := true
	var attempted, failed int64
	line := map[string]valueUnit{}
	for _, r := range results {
		for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
			fmt.Fprintf(stdout, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		for _, f := range r.Failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", r.Workload, f)
		}
		for _, m := range r.Metrics {
			key := m.Name
			if len(results) > 1 {
				key = r.Workload + "." + m.Name
			}
			line[key] = valueUnit{m.Value, m.Unit}
		}
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
	}
	if *out != "" {
		if err := writeResults(*out, e, *trace == 1, results); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	enc, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{correct, attempted, failed, line})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !correct {
		return 1
	}
	return 0
}

// retryBudget bounds the repeats of a workload run: a repeat starts only if,
// taking as long as the run before it, it ends within the budget counted
// from the first run's start, which keeps the whole within three minutes.
const retryBudget = 150 * time.Second

// runSteady runs a workload and repeats it, with the same inputs, while more
// than maxStealShare of the machine's CPU time was stolen during the run and
// the budget allows (speed.go says why). It returns the run with the least
// steal, or the first run that failed a check, so that a failure is never
// repeated away. Tests pass a fake clock and steal counter.
func runSteady(e *env, name string, run func(*env) (*result, error), c clock, machine func() (machineTimes, bool)) (*result, error) {
	start := c.Now()
	var best *result
	var bestSteal float64
	runs := 0
	for {
		runs++
		t0 := c.Now()
		m0, ok0 := machine()
		r, err := run(e)
		if err != nil {
			return nil, err
		}
		m1, ok1 := machine()
		steal := stealShare(m0, m1)
		if best == nil || steal < bestSteal || r.Failed > 0 {
			best, bestSteal = r, steal
		}
		now := c.Now()
		if r.Failed > 0 || !ok0 || !ok1 || steal <= maxStealShare || now.Sub(start)+now.Sub(t0) > retryBudget {
			break
		}
		fmt.Fprintf(e.log, "bench: %s: %.0f%% of the machine's CPU time was stolen during the run; repeating it\n", name, 100*steal)
	}
	best.Extra = append(best.Extra, metric{Name: "steal_share", Value: bestSteal, Unit: "ratio"}, metric{Name: "runs", Value: float64(runs), Unit: "count"})
	return best, nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFile is the -out document: one run's results with the settings that
// decide whether two runs may be compared.
type runFile struct {
	Schema     string       `json:"schema"`
	Seed       int64        `json:"seed"`
	Seconds    int          `json:"seconds"`
	Trace      bool         `json:"trace"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Go         string       `json:"go"`
	Results    []fileResult `json:"results"`
}

type fileResult struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
	Failures  []string             `json:"failures,omitempty"`
}

const runFileSchema = "tsens-bench-run/v1"

// writeResults writes the -out file and, for a trace run, the spans as
// JSON lines next to it (FILE.spans.jsonl).
func writeResults(path string, e *env, trace bool, results []*result) error {
	doc := runFile{
		Schema: runFileSchema, Seed: e.seed, Seconds: int(e.seconds / time.Second), Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
	for _, r := range results {
		fr := fileResult{Workload: r.Workload, Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
			Metrics: map[string]valueUnit{}, Failures: r.Failures}
		for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
			fr.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
		}
		doc.Results = append(doc.Results, fr)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !trace {
		return nil
	}
	f, err := os.Create(strings.TrimSuffix(path, filepath.Ext(path)) + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		for _, s := range r.Spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{r.Workload, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
