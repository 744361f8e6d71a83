package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"reflect"
	"strings"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/csvio"
	"tsens/internal/parser"
	"tsens/internal/relation"
)

func TestParseBags(t *testing.T) {
	bags, err := parseBags("0,1;2;3,4")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2}, {3, 4}}
	if !reflect.DeepEqual(bags, want) {
		t.Fatalf("parseBags=%v", bags)
	}
	if _, err := parseBags("0,x"); err == nil {
		t.Fatal("bad index accepted")
	}
	bags, err = parseBags("0, 1 ; 2")
	if err != nil || len(bags) != 2 {
		t.Fatalf("whitespace handling: %v %v", bags, err)
	}
}

func TestParseTuple(t *testing.T) {
	loader := csvio.NewLoader()
	rel, vals, err := parseTuple(loader, "R2:1,foo")
	if err != nil {
		t.Fatal(err)
	}
	if rel != "R2" || len(vals) != 2 || vals[0] != 1 {
		t.Fatalf("parseTuple=(%s,%v)", rel, vals)
	}
	// The string must land on the same dictionary code as loading would.
	code, _ := loader.Encode("foo")
	if vals[1] != code {
		t.Fatal("string value encoded inconsistently")
	}
	if _, _, err := parseTuple(loader, "no-colon"); err == nil {
		t.Fatal("missing colon accepted")
	}
}

func TestRenderTuple(t *testing.T) {
	loader := csvio.NewLoader()
	tr := &core.TupleResult{
		Relation:    "R1",
		Vars:        []string{"A", "B"},
		Values:      relation.Tuple{1, 2},
		Wildcard:    []bool{false, true},
		Sensitivity: 7,
		InDatabase:  true,
	}
	s := renderTuple(loader, tr)
	if s == "" {
		t.Fatal("empty rendering")
	}
	empty := &core.TupleResult{Relation: "R1"}
	if renderTuple(loader, empty) == "" {
		t.Fatal("empty tuple rendering")
	}
}

func TestApproxMark(t *testing.T) {
	if approxMark(false) != "" || approxMark(true) == "" {
		t.Fatal("approxMark wrong")
	}
}

// TestBuildServe assembles the serve subcommand against a tiny CSV snapshot
// and drives the HTTP handler end to end: startup query registration,
// stream replay through the update log, and an LS read that must match the
// one-shot solver on the replayed state.
func TestBuildServe(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("R1.csv", "a,b\n1,1\n1,2\n2,2\n")
	writeFile("R2.csv", "b,c\n1,x\n2,x\n2,y\n")
	writeFile("updates.stream", "+,R2,2,x\n-,R1,1,1\n")

	cmd, err := buildServe([]string{
		"-data", dir,
		"-addr", "127.0.0.1:0",
		"-query", "R1(A,B), R2(B,C)",
		"-id", "demo",
		"-replay", filepath.Join(dir, "updates.stream"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cmd.srv.Close()
	defer cmd.ln.Close()
	if cmd.replay == nil {
		t.Fatal("replay not configured")
	}
	if err := cmd.replay(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.srv.WaitApplied(2); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(cmd.api)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/queries/demo/ls")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ls struct {
		Epoch int64 `json:"epoch"`
		Count int64 `json:"count"`
		LS    int64 `json:"ls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}

	// From-scratch cross-check on the replayed state.
	loader := csvio.NewLoader()
	db, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := loader.Encode("x")
	r2 := db.Relation("R2")
	r2.Rows = append(r2.Rows, relation.Tuple{2, x})
	r1 := db.Relation("R1")
	for i, row := range r1.Rows {
		if row.Equal(relation.Tuple{1, 1}) {
			r1.Rows = append(r1.Rows[:i], r1.Rows[i+1:]...)
			break
		}
	}
	q, err := parser.Parse("demo", "R1(A,B), R2(B,C)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LocalSensitivity(q, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Epoch != 2 || ls.Count != want.Count || ls.LS != want.LS {
		t.Fatalf("served (epoch %d: %d, %d), scratch (%d, %d)", ls.Epoch, ls.Count, ls.LS, want.Count, want.LS)
	}
}

// TestBuildServeSharded starts the CLI server with an explicit shard count
// and checks the /epoch shard fields.
func TestBuildServeSharded(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("R1.csv", "a,b\n1,1\n1,2\n2,2\n3,1\n")
	writeFile("R2.csv", "b,c\n1,4\n2,4\n2,5\n1,6\n")

	cmd, err := buildServe([]string{
		"-data", dir,
		"-addr", "127.0.0.1:0",
		"-query", "R1(A,B), R2(B,C)",
		"-id", "demo",
		"-shards", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cmd.srv.Close()
	defer cmd.ln.Close()
	if got := cmd.srv.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want 2", got)
	}
	if infos := cmd.srv.Queries(); len(infos) != 1 {
		t.Fatalf("startup query not registered: %+v", infos)
	}

	ts := httptest.NewServer(cmd.api)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ep struct {
		Shards     int     `json:"shards"`
		Watermarks []int64 `json:"watermarks"`
		Joined     int64   `json:"joined"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
		t.Fatal(err)
	}
	if ep.Shards != 2 || len(ep.Watermarks) != 2 {
		t.Fatalf("/epoch shard fields: %+v", ep)
	}
}

func TestBuildServeValidation(t *testing.T) {
	if _, err := buildServe([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("missing -data accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "R1.csv"), []byte("a,b\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildServe([]string{"-data", dir, "-addr", "127.0.0.1:0", "-query", "R9(A,"}); err == nil {
		t.Fatal("malformed startup query accepted")
	}
}

// TestExitCodes pins the unified exit-code contract: usage errors (bad or
// missing flags, any subcommand) exit 2, runtime failures exit 1, -h exits
// 0. Before the unification, subcommand flag errors exited 2 via
// flag.ExitOnError while every top-level error exited 1.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "R1.csv"), []byte("a,b\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A plain file: using it as a -wal parent fails with ENOTDIR even when
	// the test runs as root (permission bits would not be enforced then).
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"top-level bad flag", []string{"-no-such-flag"}, 2},
		{"top-level missing required", []string{"-data", dir}, 2},
		{"top-level runtime error", []string{"-data", filepath.Join(dir, "missing"), "-query", "R1(A,B)"}, 1},
		{"top-level bad query", []string{"-data", dir, "-query", "R1(A,"}, 1},
		{"updates bad flag", []string{"updates", "-bogus"}, 2},
		{"updates missing required", []string{"updates", "-data", dir}, 2},
		{"updates bad batch", []string{"updates", "-data", dir, "-query", "R1(A,B)", "-batch", "0"}, 2},
		{"updates runtime error", []string{"updates", "-data", dir, "-query", "R1(A,B)"}, 1}, // no updates.stream
		{"serve bad flag", []string{"serve", "-nope"}, 2},
		{"serve bad log level", []string{"serve", "-data", dir, "-addr", "127.0.0.1:0", "-log-level", "loud"}, 2},
		{"serve negative slow-ms", []string{"serve", "-data", dir, "-addr", "127.0.0.1:0", "-slow-ms", "-5"}, 2},
		{"serve missing data and wal", []string{"serve", "-addr", "127.0.0.1:0"}, 2},
		{"serve unwritable wal dir", []string{"serve", "-addr", "127.0.0.1:0", "-data", dir,
			"-wal", filepath.Join(blocker, "wal")}, 1},
		{"serve wal without data or state", []string{"serve", "-addr", "127.0.0.1:0",
			"-wal", filepath.Join(dir, "emptywal")}, 1},
		{"top-level help", []string{"-h"}, 0},
		{"updates help", []string{"updates", "-h"}, 0},
		{"serve help", []string{"serve", "-h"}, 0},
	}
	for _, c := range cases {
		if got := realMain(c.args); got != c.want {
			t.Errorf("%s: exit %d, want %d (args %v)", c.name, got, c.want, c.args)
		}
	}
}

// TestBuildServeWALRestart drives the CLI assembly through a full restart:
// first boot registers the startup query and absorbs updates, a graceful
// close checkpoints, and the second boot with identical flags recovers the
// query at the same epoch instead of double-registering it.
func TestBuildServeWALRestart(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("R1.csv", "a,b\n1,1\n1,2\n2,2\n")
	writeFile("R2.csv", "b,c\n1,x\n2,x\n2,y\n")
	writeFile("updates.stream", "+,R2,2,x\n-,R1,1,1\n+,R1,3,1\n")
	walDir := filepath.Join(dir, "wal")

	args := []string{
		"-data", dir,
		"-addr", "127.0.0.1:0",
		"-query", "R1(A,B), R2(B,C)",
		"-id", "demo",
		"-wal", walDir,
	}
	cmd, err := buildServe(append([]string{"-replay", filepath.Join(dir, "updates.stream")}, args...))
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.replay(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.srv.WaitApplied(3); err != nil {
		t.Fatal(err)
	}
	before, err := cmd.srv.View("demo")
	if err != nil {
		t.Fatal(err)
	}
	cmd.ln.Close()
	cmd.srv.Close() // graceful: final checkpoint

	re, err := buildServe(args) // same flags, no -replay: must recover, not re-register
	if err != nil {
		t.Fatal(err)
	}
	defer re.srv.Close()
	defer re.ln.Close()
	after, err := re.srv.View("demo")
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch || after.Count != before.Count || after.LS.LS != before.LS.LS {
		t.Fatalf("recovered view (epoch %d: %d, %d), want (epoch %d: %d, %d)",
			after.Epoch, after.Count, after.LS.LS, before.Epoch, before.Count, before.LS.LS)
	}
	if infos := re.srv.Queries(); len(infos) != 1 {
		t.Fatalf("recovered %d queries, want 1: %+v", len(infos), infos)
	}
	if st := re.srv.Stats(); !st.WAL || st.Epoch != 3 {
		t.Fatalf("recovered stats %+v, want WAL at epoch 3", st)
	}
	re.ln.Close()
	re.srv.Close()

	// Restarting with -replay still on the command line must NOT feed the
	// stream a second time (it is already journaled; re-appending would
	// double the database).
	re2, err := buildServe(append([]string{"-replay", filepath.Join(dir, "updates.stream")}, args...))
	if err != nil {
		t.Fatal(err)
	}
	defer re2.srv.Close()
	defer re2.ln.Close()
	if re2.replay != nil {
		t.Fatal("-replay not skipped on a recovering boot")
	}
	if v, err := re2.srv.View("demo"); err != nil || v.Epoch != 3 {
		t.Fatalf("view after second restart: %+v, %v", v, err)
	}

	// And restarting with the same -id but a DIFFERENT -query must fail
	// loudly instead of silently serving the old body under that id.
	bad := []string{"-data", dir, "-addr", "127.0.0.1:0", "-query", "R1(A,B)", "-id", "demo", "-wal", walDir}
	if _, err := buildServe(bad); err == nil {
		t.Fatal("changed -query under a recovered -id accepted")
	}
}

// TestServeReplicationFailover assembles a replicating leader and a
// follower through the real flag surface and drives the failover story end
// to end: the follower serves the leader's replicated reads and refuses
// writes with 503 + Retry-After, and when the leader goes away its lease
// lapses and the follower promotes itself into a serving leader that
// accepts writes.
func TestServeReplicationFailover(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("R1.csv", "a,b\n1,1\n1,2\n2,2\n")
	writeFile("R2.csv", "b,c\n1,x\n2,x\n2,y\n")
	lease := filepath.Join(dir, "lease")

	ld, err := buildServe([]string{
		"-data", dir,
		"-addr", "127.0.0.1:0",
		"-query", "R1(A,B), R2(B,C)",
		"-id", "demo",
		"-wal", filepath.Join(dir, "wal-leader"),
		"-replicate", "127.0.0.1:0",
		"-lease", lease,
		"-lease-ttl", "300ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.shutdown()
	defer ld.ln.Close()
	go serveReplication(ld.log, ld.leader, ld.replLn)

	fl, err := buildServe([]string{
		"-follow", ld.replLn.Addr().String(),
		"-addr", "127.0.0.1:0",
		"-wal", filepath.Join(dir, "wal-follower"),
		"-lease", lease,
		"-lease-ttl", "300ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.shutdown()
	defer fl.ln.Close()
	stopPromote := make(chan struct{})
	defer close(stopPromote)
	go fl.promoteLoop(stopPromote)

	lts := httptest.NewServer(ld.api)
	defer lts.Close()
	fts := httptest.NewServer(fl.api)
	defer fts.Close()

	post := func(url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	type lsReply struct {
		Epoch int64 `json:"epoch"`
		Count int64 `json:"count"`
		LS    int64 `json:"ls"`
	}
	getLS := func(url string) (lsReply, int) {
		t.Helper()
		resp, err := http.Get(url + "/queries/demo/ls")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ls lsReply
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
				t.Fatal(err)
			}
		}
		return ls, resp.StatusCode
	}
	state := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rz struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
			t.Fatal(err)
		}
		return rz.State
	}

	// Write through the leader with read-your-writes, then the follower must
	// catch up to the identical answer.
	if resp := post(lts.URL+"/updates?wait=epoch", `{"updates":[{"op":"+","rel":"R2","row":["2","x"]}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader update: status %d", resp.StatusCode)
	}
	want, code := getLS(lts.URL)
	if code != http.StatusOK {
		t.Fatalf("leader ls: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, code := getLS(fts.URL)
		if code == http.StatusOK && got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v (status %d), want %+v", got, code, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := state(fts.URL); st != "following" {
		t.Fatalf("follower /readyz state %q, want following", st)
	}

	// Writes and releases are leader-only on the follower.
	resp := post(fts.URL+"/updates", `{"updates":[{"op":"+","rel":"R2","row":["1","y"]}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("follower write: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// The leader shuts down gracefully, releasing the lease; the follower's
	// promote loop notices and takes over through the ordinary recovery.
	ld.shutdown()
	for {
		if st := state(fts.URL); st == "leading" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never promoted (state %q)", state(fts.URL))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp := post(fts.URL+"/updates?wait=epoch", `{"updates":[{"op":"+","rel":"R2","row":["1","y"]}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted write: status %d", resp.StatusCode)
	}
	got, code := getLS(fts.URL)
	if code != http.StatusOK || got.Epoch != want.Epoch+1 {
		t.Fatalf("promoted ls: %+v (status %d), want epoch %d", got, code, want.Epoch+1)
	}
}

// TestServeTraceAcrossReplication drives one traced update through a
// replicating leader and its follower and asserts the tracing layer's core
// promise: the leader's flight recorder holds the update's trace with every
// write-path stage, and the follower holds a replicated-update trace under
// the SAME trace ID with the mirror and apply stages — one request joined
// across two processes, the ID riding inside the shipped WAL record.
func TestServeTraceAcrossReplication(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("R1.csv", "a,b\n1,1\n1,2\n2,2\n")
	writeFile("R2.csv", "b,c\n1,x\n2,x\n2,y\n")

	ld, err := buildServe([]string{
		"-data", dir,
		"-addr", "127.0.0.1:0",
		"-query", "R1(A,B), R2(B,C)",
		"-id", "demo",
		"-wal", filepath.Join(dir, "wal-leader"),
		"-replicate", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.shutdown()
	defer ld.ln.Close()
	go serveReplication(ld.log, ld.leader, ld.replLn)

	fl, err := buildServe([]string{
		"-follow", ld.replLn.Addr().String(),
		"-addr", "127.0.0.1:0",
		"-wal", filepath.Join(dir, "wal-follower"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.shutdown()
	defer fl.ln.Close()

	lts := httptest.NewServer(ld.api)
	defer lts.Close()
	fts := httptest.NewServer(fl.api)
	defer fts.Close()

	resp, err := http.Post(lts.URL+"/updates?wait=epoch", "application/json",
		strings.NewReader(`{"updates":[{"op":"+","rel":"R2","row":["2","x"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		Trace string `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Trace == "" {
		t.Fatalf("update: status %d, trace %q", resp.StatusCode, ack.Trace)
	}

	// stagesOf fetches /debug/traces and returns the stage-name set of the
	// trace with the wanted name and ID, or nil while it has not appeared.
	stagesOf := func(url, name, id string) map[string]bool {
		t.Helper()
		resp, err := http.Get(url + "/debug/traces?name=" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Traces []struct {
				ID     string `json:"id"`
				Stages []struct {
					Name string `json:"name"`
				} `json:"stages"`
			} `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		for _, tr := range out.Traces {
			if tr.ID != id {
				continue
			}
			stages := make(map[string]bool, len(tr.Stages))
			for _, st := range tr.Stages {
				stages[st.Name] = true
			}
			return stages
		}
		return nil
	}
	waitStages := func(url, name string, want []string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if stages := stagesOf(url, name, ack.Trace); stages != nil {
				for _, s := range want {
					if !stages[s] {
						t.Fatalf("%s trace %s: stage %q missing in %v", name, ack.Trace, s, stages)
					}
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never appeared in %s/debug/traces?name=%s", ack.Trace, url, name)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The leader finishes the trace when the last shard drains the round;
	// the follower records its half when the shipped record applies.
	waitStages(lts.URL, "update", []string{"ingress", "wal-append", "drain", "shard-drain"})
	waitStages(fts.URL, "replicated-update", []string{"mirror", "apply"})
}
