package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tsens/internal/core"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// TestParallelismInvariance checks that the engine returns identical
// results at every Parallelism setting: the whole Result (LS, Count, the
// Best relation and values, and every PerRelation tuple with its wildcards
// and InDatabase flag), on the Figure 1 fixture, on randomized star joins
// (several independent subtrees, exercising concurrent botjoin/topjoin
// scheduling), and on all seven paper queries over small generated data
// (GHD bags, skipped relations, and many multiplicity-table factor groups
// built concurrently).
func TestParallelismInvariance(t *testing.T) {
	type instance struct {
		name string
		q    *query.Query
		db   *relation.Database
		opts core.Options
	}
	instances := []instance{{"figure1", core.Figure1Query(), core.Figure1DB(), core.Options{}}}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		db, q := randomStar(rng, 4, 60)
		instances = append(instances, instance{fmt.Sprintf("star%d", trial), q, db, core.Options{}})
	}

	tpch, fb := workload.TPCHData(0.0005, 11), workload.FacebookDataSized(40, 150, 40, 11)
	for i, s := range workload.All() {
		db := fb
		if i < len(workload.TPCH()) {
			db = tpch
		}
		instances = append(instances, instance{s.Name, s.Query, db, s.Options()})
	}

	for _, inst := range instances {
		opts := inst.opts
		opts.Parallelism = 1
		base, err := core.LocalSensitivity(inst.q, inst.db, opts)
		if err != nil {
			t.Fatalf("%s sequential: %v", inst.name, err)
		}
		for _, p := range []int{0, 2, 8} {
			opts.Parallelism = p
			got, err := core.LocalSensitivity(inst.q, inst.db, opts)
			if err != nil {
				t.Fatalf("%s par=%d: %v", inst.name, p, err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%s par=%d:\n got %s\nwant %s", inst.name, p, describe(got), describe(base))
			}
		}
	}
}

// describe renders a Result with its tuples spelled out.
func describe(r *core.Result) string {
	s := fmt.Sprintf("LS=%d Count=%d", r.LS, r.Count)
	if r.Best != nil {
		s += fmt.Sprintf(" Best=%s", r.Best.Relation)
	}
	for rel, tr := range r.PerRelation {
		s += fmt.Sprintf(" %s:%+v", rel, *tr)
	}
	return s
}

// randomStar builds a star join R0(X1..Xk) ⋈ S1(X1,Y1) ⋈ … ⋈ Sk(Xk,Yk):
// the satellites are independent subtrees under the center.
func randomStar(rng *rand.Rand, k, rows int) (*relation.Database, *query.Query) {
	center := make([]relation.Tuple, 0, rows)
	centerAttrs := make([]string, k)
	for i := range centerAttrs {
		centerAttrs[i] = fmt.Sprintf("X%d", i)
	}
	for i := 0; i < rows; i++ {
		t := make(relation.Tuple, k)
		for j := range t {
			t[j] = int64(rng.Intn(5))
		}
		center = append(center, t)
	}
	rels := []*relation.Relation{relation.MustNew("R0", centerAttrs, center)}
	atoms := []query.Atom{{Relation: "R0", Vars: centerAttrs}}
	for j := 0; j < k; j++ {
		var satRows []relation.Tuple
		for i := 0; i < rows/2; i++ {
			satRows = append(satRows, relation.Tuple{int64(rng.Intn(5)), int64(rng.Intn(4))})
		}
		name := fmt.Sprintf("S%d", j)
		x, y := fmt.Sprintf("X%d", j), fmt.Sprintf("Y%d", j)
		rels = append(rels, relation.MustNew(name, []string{x, y}, satRows))
		atoms = append(atoms, query.Atom{Relation: name, Vars: []string{x, y}})
	}
	return relation.MustNewDatabase(rels...), query.MustNew("star", atoms, nil)
}
