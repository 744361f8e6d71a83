package main

import (
	"encoding/json"
	"testing"

	"tsens/internal/relation"
	"tsens/internal/workload"
)

func TestPalindromeStaysStationaryAndReturnsToSnapshot(t *testing.T) {
	db := workload.FacebookDataSized(40, 200, 20, 3)
	const half = 2000
	period := palindrome(db, half, 11)
	if len(period) != 2*half {
		t.Fatalf("period has %d updates, want %d", len(period), 2*half)
	}
	snap := newReference(db)
	ref := newReference(db)
	sizes := map[string]int{}
	for _, name := range db.Names() {
		sizes[name] = len(db.Relation(name).Rows)
	}
	for round := 0; round < 2; round++ {
		for i, up := range period {
			if err := ref.apply(up); err != nil {
				t.Fatalf("round %d, update %d: %v", round, i, err)
			}
			if d := ref.size(up.Rel) - sizes[up.Rel]; d < -1 || d > 1 {
				t.Fatalf("round %d, update %d: %s is %d rows off the snapshot", round, i, up.Rel, d)
			}
			if i == half-1 && ref.equal(snap) {
				t.Fatalf("round %d: S alone returned to the snapshot; the stream does nothing", round)
			}
		}
		if !ref.equal(snap) {
			t.Fatalf("round %d: database differs from the snapshot after 2|S| updates", round)
		}
	}
}

func TestPalindromeIsDeterministic(t *testing.T) {
	db := workload.FacebookDataSized(40, 200, 20, 3)
	a, b := palindrome(db, 200, 5), palindrome(db, 200, 5)
	for i := range a {
		if a[i].Rel != b[i].Rel || a[i].Insert != b[i].Insert || !a[i].Row.Equal(b[i].Row) {
			t.Fatalf("update %d differs between two builds from one seed", i)
		}
	}
}

func TestEncodeBodiesWrapsThePeriod(t *testing.T) {
	period := []relation.Update{
		{Rel: "R", Row: relation.Tuple{1, 2}, Insert: true},
		{Rel: "R", Row: relation.Tuple{3, 4}, Insert: false},
		{Rel: "S", Row: relation.Tuple{-5}, Insert: true},
		{Rel: "S", Row: relation.Tuple{6}, Insert: false},
		{Rel: "R", Row: relation.Tuple{7, 8}, Insert: true},
		{Rel: "R", Row: relation.Tuple{9, 10}, Insert: false},
	}
	bodies := encodeBodies(period, 4)
	if len(bodies) != 3 { // 6 / gcd(6, 4)
		t.Fatalf("%d bodies, want 3", len(bodies))
	}
	for k, body := range bodies {
		var req struct {
			Updates []struct {
				Op  string   `json:"op"`
				Rel string   `json:"rel"`
				Row []string `json:"row"`
			} `json:"updates"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %d: %v: %s", k, err, body)
		}
		if len(req.Updates) != 4 {
			t.Fatalf("body %d has %d updates", k, len(req.Updates))
		}
		for j, u := range req.Updates {
			want := period[(k*4+j)%len(period)]
			op := "-"
			if want.Insert {
				op = "+"
			}
			if u.Op != op || u.Rel != want.Rel || len(u.Row) != len(want.Row) {
				t.Fatalf("body %d, update %d: got %+v, want %+v", k, j, u, want)
			}
		}
	}
}

func TestReferenceRejectsDeleteOfAbsentRow(t *testing.T) {
	db := relation.MustNewDatabase(relation.MustNew("R", []string{"a"}, []relation.Tuple{{1}, {1}}))
	ref := newReference(db)
	for i := 0; i < 2; i++ {
		if err := ref.apply(relation.Update{Rel: "R", Row: relation.Tuple{1}}); err != nil {
			t.Fatalf("delete %d of a duplicated row: %v", i, err)
		}
	}
	if err := ref.apply(relation.Update{Rel: "R", Row: relation.Tuple{1}}); err == nil {
		t.Fatal("third delete of a row present twice succeeded")
	}
	out, err := ref.database()
	if err != nil || len(out.Relation("R").Rows) != 0 {
		t.Fatalf("database after deleting every row: %v, %v", out, err)
	}
}

// size is the number of rows of one relation, counting duplicates.
func (r *reference) size(rel string) int {
	n := 0
	for _, row := range r.rows[rel] {
		n += row.n
	}
	return n
}

// equal reports whether two references hold the same multisets.
func (r *reference) equal(o *reference) bool {
	if len(r.rows) != len(o.rows) {
		return false
	}
	for name, m := range r.rows {
		om := o.rows[name]
		if len(m) != len(om) {
			return false
		}
		for k, row := range m {
			if or := om[k]; or == nil || or.n != row.n {
				return false
			}
		}
	}
	return true
}
