// Package query models full conjunctive queries without self-joins — the
// query class of Tao et al. (SIGMOD 2020) — together with their hypergraph
// structure: GYO decomposition, acyclicity testing, join-tree construction
// (Section 2.2), path-shape detection (Section 4), and the doubly-acyclic
// test (Section 5.3).
package query

import (
	"fmt"
	"sort"
	"strings"

	"tsens/internal/relation"
)

// Atom is one relational atom R(x1,…,xk) in the body of a conjunctive
// query. Vars positionally rename the columns of the underlying database
// relation to query variables; natural-join semantics apply to variables
// with equal names across atoms.
type Atom struct {
	Relation string
	Vars     []string
}

// String renders the atom in datalog style.
func (a Atom) String() string {
	return fmt.Sprintf("%s(%s)", a.Relation, strings.Join(a.Vars, ","))
}

// Op is a comparison operator for selection predicates.
type Op int

// Comparison operators supported in selection predicates.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Eval applies the operator to (v, c).
func (o Op) Eval(v, c int64) bool {
	switch o {
	case Eq:
		return v == c
	case Ne:
		return v != c
	case Lt:
		return v < c
	case Le:
		return v <= c
	case Gt:
		return v > c
	case Ge:
		return v >= c
	}
	return false
}

// Predicate is a per-tuple selection condition on a single variable
// (Section 5.4 "Selections": conditions that apply to each tuple
// individually in one relation).
type Predicate struct {
	Var   string
	Op    Op
	Value int64
}

// String renders "Var op Value".
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %d", p.Var, p.Op, p.Value)
}

// Query is a full conjunctive counting query without self-joins:
//
//	Q(vars) :- R1(vars1), …, Rm(varsm) [, selections]
//
// The count is over bag semantics (Section 2).
type Query struct {
	Name       string
	Atoms      []Atom
	Selections map[string][]Predicate // keyed by relation name
}

// New builds and validates a query: at least one atom, no self-joins
// (duplicate relation names), non-empty variable names, no repeated variable
// within one atom, and all selection predicates referring to variables of
// the named atom.
func New(name string, atoms []Atom, selections map[string][]Predicate) (*Query, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("query %s: no atoms", name)
	}
	seenRel := make(map[string]bool, len(atoms))
	for _, a := range atoms {
		if a.Relation == "" {
			return nil, fmt.Errorf("query %s: atom with empty relation name", name)
		}
		if seenRel[a.Relation] {
			return nil, fmt.Errorf("query %s: self-join on %s is not supported", name, a.Relation)
		}
		seenRel[a.Relation] = true
		seenVar := make(map[string]bool, len(a.Vars))
		for _, v := range a.Vars {
			if v == "" {
				return nil, fmt.Errorf("query %s: atom %s has an empty variable", name, a.Relation)
			}
			if seenVar[v] {
				return nil, fmt.Errorf("query %s: atom %s repeats variable %q", name, a.Relation, v)
			}
			seenVar[v] = true
		}
	}
	for rel, preds := range selections {
		atom, ok := findAtom(atoms, rel)
		if !ok {
			return nil, fmt.Errorf("query %s: selection on unknown relation %s", name, rel)
		}
		for _, p := range preds {
			if !hasVar(atom.Vars, p.Var) {
				return nil, fmt.Errorf("query %s: selection %v refers to variable absent from %s", name, p, rel)
			}
		}
	}
	return &Query{Name: name, Atoms: atoms, Selections: selections}, nil
}

// MustNew is New but panics on error; intended for tests and static
// workload definitions.
func MustNew(name string, atoms []Atom, selections map[string][]Predicate) *Query {
	q, err := New(name, atoms, selections)
	if err != nil {
		panic(err)
	}
	return q
}

func findAtom(atoms []Atom, rel string) (Atom, bool) {
	for _, a := range atoms {
		if a.Relation == rel {
			return a, true
		}
	}
	return Atom{}, false
}

func hasVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// Atom returns the atom over the named relation.
func (q *Query) Atom(rel string) (Atom, bool) { return findAtom(q.Atoms, rel) }

// Vars returns all distinct variables in body order of first occurrence.
func (q *Query) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// VarOccurrences counts, for every variable, the number of atoms it appears
// in. Variables occurring once are ignored by the sensitivity algorithms and
// extrapolated afterwards (Section 5.4, "Other").
func (q *Query) VarOccurrences() map[string]int {
	occ := make(map[string]int)
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			occ[v]++
		}
	}
	return occ
}

// String renders the query as a datalog rule, selections by relation name
// and each relation's predicates in their given order.
func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	s := fmt.Sprintf("%s() :- %s", q.Name, strings.Join(parts, ", "))
	rels := make([]string, 0, len(q.Selections))
	for rel := range q.Selections {
		rels = append(rels, rel)
	}
	sort.Strings(rels) // map order would make the text differ between calls
	for _, rel := range rels {
		for _, p := range q.Selections[rel] {
			s += fmt.Sprintf(", σ[%s: %s]", rel, p)
		}
	}
	return s
}

// Bind validates the query against a database: every atom's relation must
// exist and have matching arity. It returns the bound relations in atom
// order.
func (q *Query) Bind(db *relation.Database) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r := db.Relation(a.Relation)
		if r == nil {
			return nil, fmt.Errorf("query %s: database has no relation %s", q.Name, a.Relation)
		}
		if len(r.Attrs) != len(a.Vars) {
			return nil, fmt.Errorf("query %s: atom %s has arity %d but relation has %d columns",
				q.Name, a.Relation, len(a.Vars), len(r.Attrs))
		}
		out[i] = r
	}
	return out, nil
}

// ApplySelections returns, for an atom, a row filter implementing the
// query's selection predicates over that relation's tuples (positional,
// following the atom's variable renaming). A nil filter means no predicates.
func (q *Query) ApplySelections(a Atom) func(relation.Tuple) bool {
	preds := q.Selections[a.Relation]
	if len(preds) == 0 {
		return nil
	}
	// Precompute variable positions.
	type bound struct {
		pos int
		op  Op
		val int64
	}
	bounds := make([]bound, 0, len(preds))
	for _, p := range preds {
		for i, v := range a.Vars {
			if v == p.Var {
				bounds = append(bounds, bound{i, p.Op, p.Value})
			}
		}
	}
	return func(t relation.Tuple) bool {
		for _, b := range bounds {
			if !b.op.Eval(t[b.pos], b.val) {
				return false
			}
		}
		return true
	}
}
