package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

func TestDownwardFigure3(t *testing.T) {
	q, db := figure3Query(), figure3DB()
	res, err := DownwardLocalSensitivity(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The most damaging deletion in Figure 3 is R3(c1,d1): each copy
	// carries ⊤(c1)·⊥(d1) = 7·3 = 21 outputs.
	if res.LS != 21 {
		t.Fatalf("downward LS=%d, want 21", res.LS)
	}
	if !res.Best.InDatabase {
		t.Fatal("downward best must be an existing tuple")
	}
	// Deleting it must actually drop the count by 21.
	mod := db.Clone()
	if err := removeOne(mod.Relation(res.Best.Relation), res.Best.Values); err != nil {
		t.Fatal(err)
	}
	before, _ := naiveCount(q, db)
	after, _ := naiveCount(q, mod)
	if before-after != res.LS {
		t.Fatalf("deletion changed count by %d, reported %d", before-after, res.LS)
	}
}

func TestDownwardNeverExceedsOverallLS(t *testing.T) {
	q, db := figure1Query(), figure1DB()
	down, err := DownwardLocalSensitivity(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := LocalSensitivity(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if down.LS > full.LS {
		t.Fatalf("downward %d exceeds overall %d", down.LS, full.LS)
	}
	// Figure 1: overall LS is 4 via an insertion; the best deletion only
	// removes the single output tuple.
	if down.LS != 1 {
		t.Fatalf("downward LS=%d, want 1", down.LS)
	}
	if down.Count != full.Count {
		t.Fatalf("counts disagree: %d vs %d", down.Count, full.Count)
	}
}

func TestDownwardSkipRelations(t *testing.T) {
	q, db := figure3Query(), figure3DB()
	res, err := DownwardLocalSensitivity(q, db, Options{SkipRelations: []string{"R3"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.PerRelation["R3"]; ok {
		t.Fatal("skipped relation reported")
	}
}

// Property: downward LS equals the best per-row re-evaluation drop.
func TestPropertyDownwardAgainstReEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		var atoms []query.Atom
		var rels []*relation.Relation
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("R%d", i)
			atoms = append(atoms, query.Atom{Relation: name,
				Vars: []string{fmt.Sprintf("V%d", i), fmt.Sprintf("V%d", i+1)}})
			rels = append(rels, randRelation(rng, name, []string{"x", "y"}, 5, 3))
		}
		q := query.MustNew("q", atoms, nil)
		db := relation.MustNewDatabase(rels...)
		res, err := DownwardLocalSensitivity(q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := naiveCount(q, db)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, a := range atoms {
			distinct := relation.FromRelation(db.Relation(a.Relation))
			for i := range distinct.Len() {
				row := distinct.Row(i)
				mod := db.Clone()
				if err := removeOne(mod.Relation(a.Relation), row); err != nil {
					t.Fatal(err)
				}
				after, err := naiveCount(q, mod)
				if err != nil {
					t.Fatal(err)
				}
				if base-after > want {
					want = base - after
				}
			}
		}
		if res.LS != want {
			t.Fatalf("trial %d: downward LS=%d, re-evaluation says %d", trial, res.LS, want)
		}
	}
}
