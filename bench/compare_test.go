package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticRun is one -out file with one workload's end-to-end metrics.
func syntheticRun(nproc int, failed int64, metrics map[string]float64) runFile {
	r := fileResult{Workload: "ingest", Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]valueUnit{}}
	for k, v := range metrics {
		r.Metrics[k] = valueUnit{Value: v}
	}
	return runFile{Schema: runFileSchema, NProc: nproc, GOMAXPROCS: nproc, Results: []fileResult{r}}
}

func testSpec() benchSpec {
	var s benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "thr", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), &s); err != nil {
		panic(err)
	}
	return s
}

// runs builds one side: one file per value pair.
func runs(lat, thr []float64, failed int64) []runFile {
	var out []runFile
	for i := range lat {
		out = append(out, syntheticRun(2, failed, map[string]float64{"lat": lat[i], "thr": thr[i]}))
	}
	return out
}

func verdictOf(t *testing.T, vs []verdict, metric string) verdict {
	t.Helper()
	for _, v := range vs {
		if v.Metric == metric {
			return v
		}
	}
	t.Fatalf("no verdict for %s in %+v", metric, vs)
	return verdict{}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	thr := []float64{50, 50, 50, 50, 50, 50}
	for _, tc := range []struct {
		name     string
		head     []float64
		headThr  []float64
		failed   int64
		lat, thr string
		errs     string
	}{
		{"unchanged", steady, thr, 0, verdictOK, verdictOK, verdictOK},
		{"worse beyond the bound", []float64{120, 121, 119, 120, 122, 118}, thr, 0, verdictFail, verdictOK, verdictOK},
		{"worse within the bound", []float64{105, 106, 104, 105, 107, 103}, thr, 0, verdictOK, verdictOK, verdictOK},
		{"lower throughput fails", steady, []float64{40, 40, 40, 40, 40, 40}, 0, verdictOK, verdictFail, verdictOK},
		{"spread wider than the bound", []float64{80, 130, 95, 140, 70, 125}, thr, 0, verdictUnresolved, verdictOK, verdictOK},
		{"wide spread but better in every run", []float64{50, 80, 60, 85, 55, 70}, thr, 0, verdictOK, verdictOK, verdictOK},
		{"any new failure fails", steady, thr, 1, verdictOK, verdictOK, verdictFail},
	} {
		vs, err := compareRuns(testSpec(), runs(steady, thr, 0), runs(tc.head, tc.headThr, tc.failed))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := verdictOf(t, vs, "lat").Status; got != tc.lat {
			t.Errorf("%s: lat %s, want %s", tc.name, got, tc.lat)
		}
		if got := verdictOf(t, vs, "thr").Status; got != tc.thr {
			t.Errorf("%s: thr %s, want %s", tc.name, got, tc.thr)
		}
		if got := verdictOf(t, vs, "error_ratio").Status; got != tc.errs {
			t.Errorf("%s: error_ratio %s, want %s", tc.name, got, tc.errs)
		}
	}
}

func TestCompareNeedsTwoRunsPerSide(t *testing.T) {
	vs, err := compareRuns(testSpec(), runs([]float64{100}, []float64{50}, 0), runs([]float64{101}, []float64{50}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, vs, "lat").Status; got != verdictUnresolved {
		t.Errorf("one run a side, slightly worse: %s, want UNRESOLVED", got)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", testSpec())
	var base, head, other []string
	for i, f := range runs([]float64{100, 101, 99}, []float64{50, 50, 50}, 0) {
		base = append(base, write("base"+string(rune('0'+i))+".json", f))
	}
	for i, f := range runs([]float64{130, 131, 129}, []float64{50, 50, 50}, 0) {
		head = append(head, write("head"+string(rune('0'+i))+".json", f))
	}
	odd := syntheticRun(4, 0, map[string]float64{"lat": 100, "thr": 50})
	other = append(other, write("other.json", odd), write("other2.json", odd))

	var out, errb bytes.Buffer
	if code := run([]string{"compare", "-spec", spec, "-base", strings.Join(base, ","), "-head", strings.Join(base, ",")}, &out, &errb); code != 0 {
		t.Fatalf("same runs on both sides: exit %d\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-spec", spec, "-base", strings.Join(base, ","), "-head", strings.Join(head, ",")}, &out, &errb); code != 1 {
		t.Fatalf("30%% slower head: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("no FAIL row:\n%s", out.String())
	}
	errb.Reset()
	if code := run([]string{"compare", "-spec", spec, "-base", strings.Join(base, ","), "-head", strings.Join(other, ",")}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "refusing") {
		t.Fatalf("runs from another CPU count: exit %d, stderr %q", code, errb.String())
	}
}
