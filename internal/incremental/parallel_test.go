package incremental

import (
	"reflect"
	"testing"

	"tsens/internal/relation"
	"tsens/internal/workload"
)

// TestOpenParallelismInvariance opens a session on each of the seven paper
// queries (small generated data) at Parallelism 1 and 4 and checks that
// both build identical state — LS() and every maintained multiplicity-table
// factor group, row for row — and stay identical through an update stream.
func TestOpenParallelismInvariance(t *testing.T) {
	tpch, fb := workload.TPCHData(0.0005, 13), workload.FacebookDataSized(40, 150, 40, 13)
	for i, s := range workload.All() {
		db := fb
		if i < len(workload.TPCH()) {
			db = tpch
		}
		open := func(p int) *Session {
			o := s.Options()
			o.Parallelism = p
			sess, err := Open(s.Query, db, Options{Options: o})
			if err != nil {
				t.Fatalf("%s par=%d: %v", s.Name, p, err)
			}
			return sess
		}
		seq, par := open(1), open(4)
		same := func(when string) {
			t.Helper()
			want, err := seq.LS()
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.LS()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: LS() at par=4 %+v, at par=1 %+v", s.Name, when, got, want)
			}
			if len(par.gts) != len(seq.gts) {
				t.Fatalf("%s %s: %d factor groups at par=4, %d at par=1", s.Name, when, len(par.gts), len(seq.gts))
			}
			for g, a := range seq.gts {
				b := par.gts[g]
				if b.ref != a.ref || !reflect.DeepEqual(b.table.Attrs, a.table.Attrs) ||
					!reflect.DeepEqual(rowsOf(b.table), rowsOf(a.table)) || !reflect.DeepEqual(b.table.Cnt, a.table.Cnt) {
					t.Fatalf("%s %s: factor group %d differs between par=4 and par=1", s.Name, when, g)
				}
			}
		}
		same("after Open")
		for _, up := range workload.UpdateStream(db, 40, 0.4, 5) {
			if err := seq.Apply([]Update{up}); err != nil {
				t.Fatalf("%s: %+v: %v", s.Name, up, err)
			}
			if err := par.Apply([]Update{up}); err != nil {
				t.Fatalf("%s: %+v: %v", s.Name, up, err)
			}
		}
		same("after updates")
	}
}

// rowsOf lists c's rows, for comparing and printing tables.
func rowsOf(c *relation.Counted) []relation.Tuple {
	out := make([]relation.Tuple, c.Len())
	for i := range out {
		out[i] = c.Row(i)
	}
	return out
}
