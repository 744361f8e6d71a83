package core

import (
	"fmt"

	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/yannakakis"
)

// NaiveOptions bounds the brute-force oracle.
type NaiveOptions struct {
	// MaxCandidates caps the number of query re-evaluations (deletions plus
	// representative-domain insertions). Zero means 200000.
	MaxCandidates int
}

// NaiveLocalSensitivity implements the polynomial-data-complexity algorithm
// of Theorem 3.1: it re-evaluates |Q| once per deletion of an existing
// tuple and once per insertion of every tuple in the representative domain
// (Definition 3.1). It is exponential in the query size and is used as the
// correctness oracle for TSens and as the "repeat Yannakakis" baseline of
// Sections 4.1 and 5.2.
func NaiveLocalSensitivity(q *query.Query, db *relation.Database, opts NaiveOptions) (*Result, error) {
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 200000
	}
	if _, err := q.Bind(db); err != nil {
		return nil, err
	}
	base, err := yannakakis.BruteCount(q, db)
	if err != nil {
		return nil, err
	}
	res := &Result{PerRelation: make(map[string]*TupleResult), Count: base}
	budget := opts.MaxCandidates

	consider := func(a query.Atom, t relation.Tuple, sens int64, inDB bool) {
		tr, ok := res.PerRelation[a.Relation]
		if !ok {
			tr = &TupleResult{Relation: a.Relation, Vars: append([]string(nil), a.Vars...), Sensitivity: -1}
			res.PerRelation[a.Relation] = tr
		}
		if sens > tr.Sensitivity {
			tr.Sensitivity = sens
			tr.Values = t.Clone()
			tr.Wildcard = make([]bool, len(t))
			tr.InDatabase = inDB
		}
		if sens > res.LS {
			res.LS = sens
			res.Best = tr
		}
	}

	for _, a := range q.Atoms {
		r := db.Relation(a.Relation)

		// Downward sensitivity: delete one copy of each distinct tuple.
		distinct := relation.FromRelation(r)
		for i := range distinct.Len() {
			t := distinct.Row(i)
			if budget--; budget < 0 {
				return nil, fmt.Errorf("core: naive oracle exceeded the candidate budget")
			}
			mod := db.Clone()
			if err := removeOne(mod.Relation(a.Relation), t); err != nil {
				return nil, err
			}
			c, err := yannakakis.BruteCount(q, mod)
			if err != nil {
				return nil, err
			}
			consider(a, t, base-c, true)
		}

		// Upward sensitivity: insert each representative-domain tuple.
		domains, err := representativeDomains(q, db, a)
		if err != nil {
			return nil, err
		}
		err = enumerate(domains, func(t relation.Tuple) error {
			if budget--; budget < 0 {
				return fmt.Errorf("core: naive oracle exceeded the candidate budget")
			}
			mod := db.Clone()
			mr := mod.Relation(a.Relation)
			mr.Rows = append(mr.Rows, t.Clone())
			c, err := yannakakis.BruteCount(q, mod)
			if err != nil {
				return err
			}
			consider(a, t, c-base, tupleExists(r, t))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Relations with nothing considered (empty and with empty domains)
	// still get an explicit zero entry.
	for _, a := range q.Atoms {
		if tr, ok := res.PerRelation[a.Relation]; !ok || tr.Sensitivity < 0 {
			res.PerRelation[a.Relation] = &TupleResult{Relation: a.Relation, Vars: append([]string(nil), a.Vars...)}
		}
	}
	return res, nil
}

// representativeDomains returns, for each variable of atom a, its
// representative domain with respect to that relation (Definition 3.1): the
// intersection of the active domains of every other atom containing the
// variable, or a single witness when the variable occurs nowhere else. Any
// value of such a variable joins alike, so one witness suffices as long as
// it satisfies a's selection predicates on the variable: the first active
// value that does, else any value that does (none when they contradict).
func representativeDomains(q *query.Query, db *relation.Database, a query.Atom) ([][]int64, error) {
	out := make([][]int64, len(a.Vars))
	for i, v := range a.Vars {
		var dom []int64
		first := true
		for _, other := range q.Atoms {
			if other.Relation == a.Relation {
				continue
			}
			pos := -1
			for j, w := range other.Vars {
				if w == v {
					pos = j
				}
			}
			if pos < 0 {
				continue
			}
			r := db.Relation(other.Relation)
			act, err := r.ActiveDomain(r.Attrs[pos])
			if err != nil {
				return nil, err
			}
			if first {
				dom, first = act, false
			} else {
				dom = intersectSorted(dom, act)
			}
		}
		if first {
			r := db.Relation(a.Relation)
			act, err := r.ActiveDomain(r.Attrs[i])
			if err != nil {
				return nil, err
			}
			dom = privateWitness(act, predsFor(q.Selections[a.Relation], v))
		}
		out[i] = dom
	}
	return out, nil
}

// privateWitness picks the single value a variable private to one atom
// ranges over in the oracle: the first of act satisfying preds, else 0 when
// there are no preds, else any value satisfying them, or none when they
// contradict.
func privateWitness(act []int64, preds []query.Predicate) []int64 {
	for _, v := range act {
		ok := true
		for _, p := range preds {
			ok = ok && p.Op.Eval(v, p.Value)
		}
		if ok {
			return []int64{v}
		}
	}
	if len(preds) == 0 {
		return []int64{0}
	}
	if v, ok := pickValue(preds); ok {
		return []int64{v}
	}
	return nil
}

func intersectSorted(a, b []int64) []int64 {
	var out []int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// enumerate calls f for every tuple of the cross product of domains.
func enumerate(domains [][]int64, f func(relation.Tuple) error) error {
	for _, d := range domains {
		if len(d) == 0 {
			return nil
		}
	}
	t := make(relation.Tuple, len(domains))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(domains) {
			return f(t)
		}
		for _, v := range domains[i] {
			t[i] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// removeOne deletes a single copy of t from r.
func removeOne(r *relation.Relation, t relation.Tuple) error {
	for i, row := range r.Rows {
		if row.Equal(t) {
			r.Rows = append(r.Rows[:i], r.Rows[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("core: tuple %v not present in %s", t, r.Name)
}

func tupleExists(r *relation.Relation, t relation.Tuple) bool {
	for _, row := range r.Rows {
		if row.Equal(t) {
			return true
		}
	}
	return false
}
