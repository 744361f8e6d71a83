package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of compare.
const (
	verdictOK         = "OK"
	verdictFail       = "FAIL"
	verdictUnresolved = "UNRESOLVED"
)

// verdict is compare's finding for one (workload, metric) pair.
type verdict struct {
	Workload, Metric string
	Base, Head       float64 // medians
	Change           float64 // how much worse head is, as a share of base (negative: better)
	Spread           float64 // the wider interquartile spread of the two sides, as a share of the median
	Bound            float64
	Status           string
}

// runCompare implements "bench compare": the no-regression rule of
// BENCHMARK.json applied to two sets of -out files.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "comma-separated -out files of the parent commit")
	head := fs.String("head", "", "comma-separated -out files of the change")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(stderr, "bench compare: -base and -head are required")
		return 2
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	load := func(list string) ([]runFile, error) {
		var out []runFile
		for _, p := range strings.Split(list, ",") {
			var f runFile
			if err := readJSON(p, &f); err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	b, err := load(*base)
	if err == nil {
		var h []runFile
		if h, err = load(*head); err == nil {
			var vs []verdict
			if vs, err = compareRuns(spec, b, h); err == nil {
				return printVerdicts(stdout, vs)
			}
		}
	}
	fmt.Fprintf(stderr, "bench compare: %v\n", err)
	return 2
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareRuns applies the rule to every (workload, end-to-end metric) pair
// both sides ran, plus each workload's error ratio. Runs on machines with
// different CPU counts or GOMAXPROCS are refused.
func compareRuns(spec benchSpec, base, head []runFile) ([]verdict, error) {
	all := append(append([]runFile(nil), base...), head...)
	for _, f := range all[1:] {
		if f.NProc != all[0].NProc || f.GOMAXPROCS != all[0].GOMAXPROCS {
			return nil, fmt.Errorf("refusing to compare runs with nproc/GOMAXPROCS %d/%d and %d/%d",
				all[0].NProc, all[0].GOMAXPROCS, f.NProc, f.GOMAXPROCS)
		}
	}
	byWorkload := func(files []runFile) map[string][]fileResult {
		out := map[string][]fileResult{}
		for _, f := range files {
			for _, r := range f.Results {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for w := range bw {
		if _, ok := hw[w]; ok {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no workload ran on both sides")
	}
	sort.Strings(names)
	var out []verdict
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			bv, hv := metricValues(bw[w], m.Name), metricValues(hw[w], m.Name)
			out = append(out, judge(w, m.Name, m.Better, m.Bound, bv, hv))
		}
		out = append(out, judgeErrors(w, bw[w], hw[w]))
	}
	return out, nil
}

func metricValues(rs []fileResult, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if vu, ok := r.Metrics[name]; ok {
			out = append(out, vu.Value)
		}
	}
	return out
}

// judge compares the medians of one metric. A change that beats the base
// in every run passes; otherwise a spread wider than the bound leaves the
// pair unresolved (with fewer than two runs a side the spread is unknown),
// and a median worse by more than the bound fails.
func judge(workload, name, better string, bound float64, bv, hv []float64) verdict {
	v := verdict{Workload: workload, Metric: name, Bound: bound, Status: verdictUnresolved, Spread: math.Inf(1)}
	if len(bv) == 0 || len(hv) == 0 {
		return v
	}
	v.Base, v.Head = median(newDist(bv)), median(newDist(hv))
	if v.Base != 0 {
		v.Change = (v.Head - v.Base) / v.Base
		if better == "higher" {
			v.Change = -v.Change
		}
	}
	if len(bv) > 1 && len(hv) > 1 {
		v.Spread = math.Max(spread(bv), spread(hv))
	}
	bd, hd := newDist(bv), newDist(hv)
	beatsAll := hd.max() < bd[0]
	if better == "higher" {
		beatsAll = hd[0] > bd.max()
	}
	switch {
	case beatsAll:
		v.Status = verdictOK
	case v.Spread > bound:
		v.Status = verdictUnresolved
	case v.Change > bound:
		v.Status = verdictFail
	default:
		v.Status = verdictOK
	}
	return v
}

// judgeErrors fails a workload whose pooled error ratio rose at all.
func judgeErrors(workload string, base, head []fileResult) verdict {
	ratio := func(rs []fileResult) float64 {
		var a, f int64
		for _, r := range rs {
			a += r.Attempted
			f += r.Failed
		}
		if a == 0 {
			return 0
		}
		return float64(f) / float64(a)
	}
	v := verdict{Workload: workload, Metric: "error_ratio", Base: ratio(base), Head: ratio(head), Status: verdictOK}
	v.Change = v.Head - v.Base
	if v.Head > v.Base {
		v.Status = verdictFail
	}
	return v
}

// printVerdicts prints one row per pair and returns the exit code: 1 when
// any pair failed or is unresolved.
func printVerdicts(w io.Writer, vs []verdict) int {
	code := 0
	fmt.Fprintf(w, "%-8s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-8s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.1f%%  %s\n",
			v.Workload, v.Metric, v.Base, v.Head, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Status)
		if v.Status != verdictOK {
			code = 1
		}
	}
	return code
}
