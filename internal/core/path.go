package core

import (
	"fmt"

	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/yannakakis"
)

// PathLocalSensitivity implements Algorithm 1 of the paper: local
// sensitivity of a path join query
//
//	Q(A0..Am) :- R1(A0,A1), R2(A1,A2), …, Rm(Am-1,Am)
//
// in O(n log n) time. The query's atoms may be listed in any order and may
// carry extra single-occurrence variables and composite connectors; the
// only requirement is the path shape detected by query.PathOrder.
//
// It produces the same Result as LocalSensitivity on the same input (tested
// against it); it exists both as a faithful rendering of Algorithm 1 and as
// a lower-constant fast path for chains.
func PathLocalSensitivity(q *query.Query, db *relation.Database) (*Result, error) {
	order, ok := query.PathOrder(q.Atoms)
	if !ok {
		return nil, fmt.Errorf("core: %s is not a path join query", q.Name)
	}
	if _, err := q.Bind(db); err != nil {
		return nil, err
	}
	m := len(order)
	atoms := make([]query.Atom, m)
	for i, ai := range order {
		atoms[i] = q.Atoms[ai]
	}

	// conn[i] is the connector variable set shared by atom i and atom i+1
	// (the "Ai" of the paper); conn has m-1 entries.
	conn := make([][]string, m-1)
	for i := 0; i+1 < m; i++ {
		conn[i] = relation.Intersect(atoms[i].Vars, atoms[i+1].Vars)
	}
	// Effective vars per atom: left connector ∪ right connector.
	eff := make([][]string, m)
	for i := range atoms {
		var e []string
		if i > 0 {
			e = relation.Union(e, conn[i-1])
		}
		if i+1 < m {
			e = relation.Union(e, conn[i])
		}
		eff[i] = e
	}
	base := make([]*relation.Counted, m)
	for i, a := range atoms {
		c, err := yannakakis.BaseCounted(q, db, a)
		if err != nil {
			return nil, err
		}
		base[i], err = c.GroupBy(eff[i])
		if err != nil {
			return nil, err
		}
	}

	// Step I: topjoins. topJ[i] = ⊤(R_{i+1}) over conn[i], defined for
	// i = 0..m-2: multiplicity of partial paths R1..R_{i+1} per value of
	// conn[i].
	topJ := make([]*relation.Counted, m-1)
	for i := 0; i+1 < m; i++ {
		acc := base[i]
		if i > 0 {
			j, err := relation.Join(acc, topJ[i-1])
			if err != nil {
				return nil, err
			}
			acc = j
		}
		g, err := acc.GroupBy(conn[i])
		if err != nil {
			return nil, err
		}
		topJ[i] = g
	}
	// Step II: botjoins. botK[i] = ⊥(R_{i+1}) over conn[i]: multiplicity of
	// partial paths R_{i+2}..R_m per value of conn[i].
	botK := make([]*relation.Counted, m-1)
	for i := m - 2; i >= 0; i-- {
		acc := base[i+1]
		if i+2 < m {
			j, err := relation.Join(acc, botK[i+1])
			if err != nil {
				return nil, err
			}
			acc = j
		}
		g, err := acc.GroupBy(conn[i])
		if err != nil {
			return nil, err
		}
		botK[i] = g
	}

	res := &Result{
		PerRelation:   make(map[string]*TupleResult),
		DoublyAcyclic: true,
		MaxDegree:     2,
	}
	if m == 1 {
		res.MaxDegree = 0
	}
	// |Q(D)|: fold botK[0] into R1.
	{
		acc := base[0]
		if m > 1 {
			j, err := relation.Join(acc, botK[0])
			if err != nil {
				return nil, err
			}
			acc = j
		}
		res.Count = acc.SumCnt()
	}

	// Step III: per-relation maxima. The sensitivity of a tuple (x, y) of
	// R_{i+1} with x over conn[i-1] and y over conn[i] is
	// topJ[i-1][x] · botK[i][y]; maxima multiply because the two sides
	// share no variables.
	mdFor := func(i int) *Member {
		return &Member{Atom: atoms[i], EffVars: eff[i], Preds: q.Selections[atoms[i].Relation]}
	}
	inDB := DBLookup(q, db)
	for i := 0; i < m; i++ {
		md := mdFor(i)
		tr := &TupleResult{Relation: atoms[i].Relation, Vars: append([]string(nil), atoms[i].Vars...)}
		sens := int64(1)
		covered := make(map[string]int64)
		ok := true
		take := func(c *relation.Counted) {
			row, cnt := md.maxRow(c)
			sens = relation.MulSat(sens, cnt)
			if cnt == 0 {
				ok = false
				return
			}
			for x, a := range c.Attrs {
				covered[a] = row[x]
			}
		}
		if i > 0 {
			take(topJ[i-1])
		}
		if ok && i+1 < m {
			take(botK[i])
		}
		if !ok {
			sens = 0
		}
		tr.Sensitivity = sens
		if sens > 0 {
			values := make(relation.Tuple, len(atoms[i].Vars))
			wildcard := make([]bool, len(atoms[i].Vars))
			feasible := true
			for x, v := range atoms[i].Vars {
				if val, got := covered[v]; got {
					values[x] = val
					continue
				}
				wildcard[x] = true
				val, can := pickValue(predsFor(md.Preds, v))
				if !can {
					feasible = false
					break
				}
				values[x] = val
			}
			if feasible {
				tr.Values = values
				tr.Wildcard = wildcard
				if row, ok := inDB(md, values, wildcard); ok {
					tr.InDatabase = true
					tr.Values = row
				}
			} else {
				tr.Sensitivity = 0
			}
		}
		res.PerRelation[tr.Relation] = tr
		if tr.Sensitivity > res.LS {
			res.LS = tr.Sensitivity
			res.Best = tr
		}
	}
	return res, nil
}
