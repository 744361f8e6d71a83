package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/parser"
	"tsens/internal/relation"
)

func startAPI(t *testing.T, db *relation.Database) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := New(db, Options{Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(NewAPI(srv, nil, 42))
	t.Cleanup(ts.Close)
	return ts, srv
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
	}
	return out
}

func TestAPIEndToEnd(t *testing.T) {
	db := testDB(t, 10, 4, 21, "R1", "R2", "R3")
	ts, srv := startAPI(t, db)

	// Register a path query with a release budget.
	reg := doJSON(t, "POST", ts.URL+"/queries", map[string]any{
		"id":      "path",
		"query":   "R1(A,B), R2(B,C), R3(C,D)",
		"private": "R2",
		"release": map[string]any{"epsilon": 1.0, "bound": 50},
		"budget":  2.0,
	}, http.StatusCreated)
	if reg["id"] != "path" || reg["epoch"] != float64(0) {
		t.Fatalf("register response: %v", reg)
	}

	// And a cyclic one: no bags given, the server searches a GHD.
	doJSON(t, "POST", ts.URL+"/queries", map[string]any{
		"id":    "tri",
		"query": "R1(A,B), R2(B,C), R3(C,A)",
	}, http.StatusCreated)

	// Post updates with wait_epoch for read-your-writes on the view reads
	// below.
	ups := []map[string]any{
		{"op": "+", "rel": "R2", "row": []string{"1", "2"}},
		{"op": "+", "rel": "R2", "row": []string{"1", "2"}},
		{"op": "-", "rel": "R2", "row": []string{"1", "2"}},
	}
	up := doJSON(t, "POST", ts.URL+"/updates", map[string]any{"updates": ups, "wait_epoch": true}, http.StatusOK)
	if up["accepted"] != float64(3) || up["epoch"].(float64) < 3 {
		t.Fatalf("updates response: %v", up)
	}

	// GET ls must equal the from-scratch solver on the mutated database.
	q, err := parser.Parse("path", "R1(A,B), R2(B,C), R3(C,D)")
	if err != nil {
		t.Fatal(err)
	}
	cur := db.Clone()
	r2 := cur.Relation("R2")
	r2.Rows = append(r2.Rows, relation.Tuple{1, 2})
	want, err := core.LocalSensitivity(q, cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := doJSON(t, "GET", ts.URL+"/queries/path/ls?per_relation=1", nil, http.StatusOK)
	if int64(ls["count"].(float64)) != want.Count || int64(ls["ls"].(float64)) != want.LS {
		t.Fatalf("ls response (%v, %v), scratch (%d, %d)", ls["count"], ls["ls"], want.Count, want.LS)
	}
	if _, ok := ls["per_relation"]; !ok {
		t.Fatalf("per_relation missing: %v", ls)
	}

	// Releases: fresh then replay, budget visible.
	rel1 := doJSON(t, "POST", ts.URL+"/queries/path/release", nil, http.StatusOK)
	if rel1["fresh"] != true || rel1["spent"] != float64(1) || rel1["remaining"] != float64(1) {
		t.Fatalf("first release: %v", rel1)
	}
	rel2 := doJSON(t, "POST", ts.URL+"/queries/path/release", nil, http.StatusOK)
	if rel2["fresh"] != false || rel2["noisy"] != rel1["noisy"] {
		t.Fatalf("replay release: %v", rel2)
	}
	// The removed client-seed parameter (any request body) is rejected
	// loudly rather than silently ignored.
	doJSON(t, "POST", ts.URL+"/queries/path/release", map[string]any{"seed": 7}, http.StatusBadRequest)

	// Listing and epoch.
	list := doJSON(t, "GET", ts.URL+"/queries", nil, http.StatusOK)
	if n := len(list["queries"].([]any)); n != 2 {
		t.Fatalf("listed %d queries, want 2", n)
	}
	ep := doJSON(t, "GET", ts.URL+"/epoch", nil, http.StatusOK)
	if ep["pending"] != float64(0) {
		t.Fatalf("epoch response: %v", ep)
	}
	// The joined cut equals the published epoch at rest, and every shard's
	// watermark covers it (no torn progress observable here).
	if ep["joined"] != ep["epoch"] {
		t.Fatalf("joined cut %v != epoch %v at rest", ep["joined"], ep["epoch"])
	}
	wms, ok := ep["watermarks"].([]any)
	if !ok || len(wms) != int(ep["shards"].(float64)) || len(wms) != srv.NumShards() {
		t.Fatalf("epoch shard fields: %v", ep)
	}
	for i, wm := range wms {
		if wm.(float64) < ep["epoch"].(float64) {
			t.Fatalf("shard %d watermark %v below the published cut %v", i, wm, ep["epoch"])
		}
	}

	// CSV update body (the updates.stream format).
	req, err := http.NewRequest("POST", ts.URL+"/updates?wait=1", strings.NewReader("+,R1,0,1\n-,R1,0,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv updates: %d: %s", resp.StatusCode, raw)
	}

	// Unregister; further reads 404.
	doJSON(t, "DELETE", ts.URL+"/queries/tri", nil, http.StatusOK)
	doJSON(t, "GET", ts.URL+"/queries/tri/ls", nil, http.StatusNotFound)

	// Error paths.
	doJSON(t, "POST", ts.URL+"/queries", map[string]any{"query": "R9(A)"}, http.StatusUnprocessableEntity)
	doJSON(t, "POST", ts.URL+"/queries", map[string]any{}, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/updates", map[string]any{
		"updates": []map[string]any{{"op": "*", "rel": "R1", "row": []string{"1", "2"}}},
	}, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/updates", map[string]any{
		"updates": []map[string]any{{"op": "+", "rel": "R1", "row": []string{"x", "2"}}},
	}, http.StatusBadRequest) // IntCodec refuses strings
	doJSON(t, "POST", ts.URL+"/queries/missing/release", nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)

	if srv.Stats().Queries != 1 {
		t.Fatalf("stats: %+v", srv.Stats())
	}
}

// TestAPIBudgetExhaustion drains a query's ε budget over HTTP.
func TestAPIBudgetExhaustion(t *testing.T) {
	db := testDB(t, 10, 3, 23, "R1", "R2", "R3")
	ts, _ := startAPI(t, db)
	doJSON(t, "POST", ts.URL+"/queries", map[string]any{
		"id":      "q",
		"query":   "R1(A,B), R2(B,C), R3(C,D)",
		"private": "R2",
		"release": map[string]any{"epsilon": 1.0, "bound": 20},
		"budget":  1.0,
		"drift":   -1, // never replay: every release wants fresh ε
	}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/queries/q/release", nil, http.StatusOK)
	out := doJSON(t, "POST", ts.URL+"/queries/q/release", nil, http.StatusUnprocessableEntity)
	if !strings.Contains(fmt.Sprint(out["error"]), "budget exhausted") {
		t.Fatalf("exhaustion error: %v", out)
	}
}

// TestAPIStrictJSONDecoding: a misspelled field in a JSON body must fail
// with 400 instead of being silently dropped. The canonical victim:
// "wait_epoc" used to decode fine and silently lose read-your-writes.
func TestAPIStrictJSONDecoding(t *testing.T) {
	db := testDB(t, 8, 3, 31, "R1", "R2", "R3")
	ts, _ := startAPI(t, db)
	doJSON(t, "POST", ts.URL+"/queries", map[string]any{
		"id":    "q",
		"query": "R1(A,B), R2(B,C)",
	}, http.StatusCreated)

	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"updates misspelled wait_epoch", "/updates",
			`{"updates": [{"op": "+", "rel": "R1", "row": ["1","2"]}], "wait_epoc": true}`, http.StatusBadRequest},
		{"updates misspelled wait", "/updates",
			`{"updates": [{"op": "+", "rel": "R1", "row": ["1","2"]}], "wait_shards": true}`, http.StatusBadRequest},
		{"updates unknown field in element", "/updates",
			`{"updates": [{"op": "+", "rel": "R1", "row": ["1","2"], "relation": "R1"}]}`, http.StatusBadRequest},
		{"updates bare garbage", "/updates", `{"ops": []}`, http.StatusBadRequest},
		{"updates malformed JSON", "/updates", `{"updates": [`, http.StatusBadRequest},
		{"register misspelled budget", "/queries",
			`{"id": "q2", "query": "R1(A,B)", "budge": 2}`, http.StatusBadRequest},
		{"register unknown release field", "/queries",
			`{"id": "q3", "query": "R1(A,B)", "release": {"epsilon": 1, "bond": 5}}`, http.StatusBadRequest},
		{"release any body at all", "/queries/q/release", `{"seed": 1}`, http.StatusBadRequest},
		// Correctly spelled bodies still work (the strict decoder must not
		// over-reject).
		{"updates well-formed", "/updates",
			`{"updates": [{"op": "+", "rel": "R1", "row": ["1","2"]}], "wait_epoch": true}`, http.StatusOK},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d (want %d): %s", c.name, resp.StatusCode, c.status, raw)
		}
	}
}

// TestAPIWaitPrecedence pins the wait-directive contract of POST /updates:
// the query string wins over the body, agreeing directives are fine,
// conflicting ones (including both body flags at once, or an unknown
// wait= value) are a 400 — and a 400 must refuse the request before the
// batch enters the log, not after.
func TestAPIWaitPrecedence(t *testing.T) {
	db := testDB(t, 8, 3, 32, "R1", "R2", "R3")
	ts, srv := startAPI(t, db)

	one := `"updates": [{"op": "+", "rel": "R1", "row": ["1","2"]}]`
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		// The original bug: ?wait=1 with a body wait_epoch silently
		// upgraded to the full consistent-cut wait. Now an explicit 400.
		{"query shards vs body epoch", "/updates?wait=1",
			`{` + one + `, "wait_epoch": true}`, http.StatusBadRequest},
		{"query epoch vs body shards", "/updates?wait=epoch",
			`{` + one + `, "wait": true}`, http.StatusBadRequest},
		{"body sets both", "/updates",
			`{` + one + `, "wait": true, "wait_epoch": true}`, http.StatusBadRequest},
		{"unknown wait value", "/updates?wait=yes",
			`{` + one + `}`, http.StatusBadRequest},
		{"agreeing shards", "/updates?wait=1",
			`{` + one + `, "wait": true}`, http.StatusOK},
		{"agreeing epoch", "/updates?wait=epoch",
			`{` + one + `, "wait_epoch": true}`, http.StatusOK},
		{"query only", "/updates?wait=epoch", `{` + one + `}`, http.StatusOK},
		{"body only", "/updates", `{` + one + `, "wait_epoch": true}`, http.StatusOK},
		{"no directive", "/updates", `{` + one + `}`, http.StatusOK},
	}
	for _, c := range cases {
		before := srv.Stats().Appended
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d (want %d): %s", c.name, resp.StatusCode, c.status, raw)
		}
		after := srv.Stats().Appended
		if c.status == http.StatusBadRequest && after != before {
			t.Fatalf("%s: refused request still appended %d entries", c.name, after-before)
		}
		if c.status == http.StatusOK && after != before+1 {
			t.Fatalf("%s: accepted request appended %d entries, want 1", c.name, after-before)
		}
	}
}

// TestAPIWaitOneReadsYourWrites pins ?wait=1 as read-your-writes for every
// query: with the shard owning a query parked, POST /updates?wait=1 must
// not return even once the other shard has folded the update, and after
// the owner is released the query's view reflects it.
func TestAPIWaitOneReadsYourWrites(t *testing.T) {
	db := testDB(t, 10, 4, 41, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(NewAPI(srv, nil, 42))
	t.Cleanup(ts.Close)
	if _, _, err := srv.Register(QueryConfig{ID: "q", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	owner := ownerShard(srv, "q")
	other := 1 - owner
	entered, release := parkShard(srv.shards[owner])
	defer release()

	// An R1 row whose first column hashes to the other shard: the shard a
	// wait keyed by the update's own values would wait on.
	var row relation.Tuple
	for k := int64(0); row == nil; k++ {
		if relation.Shard(k, 2) == other {
			row = relation.Tuple{k, 1}
		}
	}
	type reply struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		body := fmt.Sprintf(`{"updates": [{"op": "+", "rel": "R1", "row": ["%d", "%d"]}]}`, row[0], row[1])
		resp, err := http.Post(ts.URL+"/updates?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			done <- reply{err: err}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- reply{status: resp.StatusCode, body: raw}
	}()
	<-entered
	const to = 1
	waitWatermark(t, srv, other, to)
	select {
	case r := <-done:
		v, _ := srv.View("q")
		t.Fatalf("POST /updates?wait=1 returned (%d %s %v) with the query's shard parked; view at epoch %d",
			r.status, r.body, r.err, v.Epoch)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	select {
	case r := <-done:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("POST /updates?wait=1: %d %s %v", r.status, r.body, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("POST /updates?wait=1 still waiting 10s after the shard was released")
	}
	v, err := srv.View("q")
	if err != nil {
		t.Fatal(err)
	}
	cur := replayPrefix(t, db, []relation.Update{{Rel: "R1", Row: row, Insert: true}}, 1)
	want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch < to || v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("view after wait=1 (%d, %d, %d), scratch (%d, %d, %d)", v.Epoch, v.Count, v.LS.LS, to, want.Count, want.LS)
	}
}

// TestAPIDebugPlans pins GET /debug/plans: one domains entry per shard,
// each the stats of the shard's one plan store, and two identical
// registrations held by one session in one store.
func TestAPIDebugPlans(t *testing.T) {
	db := testDB(t, 10, 4, 21, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(NewAPI(srv, nil, 42))
	t.Cleanup(ts.Close)
	for _, id := range []string{"p1", "p2"} {
		doJSON(t, "POST", ts.URL+"/queries", map[string]any{
			"id": id, "query": "R1(A,B), R2(B,C), R3(C,D)",
		}, http.StatusCreated)
	}

	resp, err := http.Get(ts.URL + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string][]PlanDomainStats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	domains, ok := got["domains"]
	if len(got) != 1 || !ok || len(domains) != 2 {
		t.Fatalf("GET /debug/plans = %+v, want only domains, one entry per shard", got)
	}
	held := 0
	for i, d := range domains {
		if d.Shard != i {
			t.Fatalf("domain %d = %+v, want shard %d", i, d, i)
		}
		switch d.Subscribers {
		case 0:
		case 1:
			if d.Nodes == 0 || d.NodeRefs != d.Nodes || d.Rows != 3 {
				t.Fatalf("store %+v, want the session's nodes and one rows entry per relation", d)
			}
			held++
		default:
			t.Fatalf("store %+v, want both queries on one session", d)
		}
	}
	if held != 1 {
		t.Fatalf("domains %+v, want one store holding both queries", domains)
	}
}

// TestServeEpochPublishedNeverAheadOfJoined is the hostile-scheduler
// regression test for the /epoch contract: the published epoch may lag the
// joined fold frontier (mid-round, or with a shard paused) but must never
// run ahead of it, because views only publish at cuts every shard reached.
func TestServeEpochPublishedNeverAheadOfJoined(t *testing.T) {
	db := testDB(t, 16, 6, 71, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewAPI(srv, nil, 42))
	defer ts.Close()
	if _, _, err := srv.Register(QueryConfig{ID: "q", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}

	check := func(when string) (epoch, joined float64) {
		t.Helper()
		ep := doJSON(t, "GET", ts.URL+"/epoch", nil, http.StatusOK)
		epoch, joined = ep["epoch"].(float64), ep["joined"].(float64)
		if epoch > joined {
			t.Fatalf("%s: published epoch %v ahead of joined cut %v (%v)", when, epoch, joined, ep)
		}
		return epoch, joined
	}

	// Phase 1: hammer /epoch from the side while many small rounds drain,
	// sampling the mid-round window where joined runs ahead of published.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			check("during drain")
		}
	}()
	var ups []relation.Update
	for k := int64(0); k < 40; k++ {
		ups = append(ups, relation.Update{Rel: "R1", Row: relation.Tuple{k % 6, k % 5}, Insert: true})
	}
	if _, to, err := srv.Append(ups); err != nil {
		t.Fatal(err)
	} else if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	<-done

	// Phase 2: park one shard mid-round and assert the torn round is
	// invisible — published stays at the old cut, joined never below it.
	gateCh := make(chan struct{})
	var gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(gateCh) }) }
	defer releaseGate()
	entered := make(chan struct{}, 1)
	gate := func(int) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gateCh
	}
	srv.shards[1-ownerShard(srv, "q")].gate.Store(&gate)
	before := srv.Epoch()
	if _, _, err := srv.Append([]relation.Update{{Rel: "R2", Row: relation.Tuple{1, 1}, Insert: true}}); err != nil {
		t.Fatal(err)
	}
	<-entered
	epoch, joined := check("shard parked")
	if int64(epoch) != before {
		t.Fatalf("published epoch %v moved with a shard parked (was %d)", epoch, before)
	}
	if int64(joined) < before {
		t.Fatalf("joined cut %v regressed below %d", joined, before)
	}
	releaseGate()
	if err := srv.WaitApplied(before + 1); err != nil {
		t.Fatal(err)
	}
	check("after release")
}
