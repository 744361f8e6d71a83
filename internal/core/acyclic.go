package core

import (
	"fmt"

	"tsens/internal/query"
	"tsens/internal/relation"
)

// LocalSensitivity computes LS(Q, D) and the most sensitive tuple for a
// full conjunctive query without self-joins (Definition 2.3). Acyclic
// queries run directly on their GYO join tree (Algorithm 2); cyclic queries
// require Options.Decomposition (Section 5.4).
func LocalSensitivity(q *query.Query, db *relation.Database, opts Options) (*Result, error) {
	s, err := NewSolver(q, db, opts)
	if err != nil {
		return nil, err
	}
	return s.Result(db)
}

// Result assembles the local-sensitivity outcome from the solver's current
// pass state: it builds every non-skipped member's multiplicity table in
// one parallel pass (MultiplicityTables), then reduces each factor group to
// its selection-filtered maximum and assembles the per-relation results in
// member order.
func (s *Solver) Result(db *relation.Database) (*Result, error) {
	tables, err := s.MultiplicityTables()
	if err != nil {
		return nil, err
	}
	res := &Result{
		PerRelation:   make(map[string]*TupleResult),
		Count:         s.CountTotal(),
		DoublyAcyclic: s.Tree.IsDoublyAcyclic(),
		MaxDegree:     s.Tree.MaxDegree(),
		Approximate:   s.Opts.TopK > 0,
	}
	inDB := DBLookup(s.Q, db)
	for _, mt := range tables {
		md := s.Units[mt.Unit].Members[mt.Member]
		maxima := make([]GroupMax, len(mt.Groups))
		for i, g := range mt.Groups {
			row, cnt := md.maxRow(g.Table)
			maxima[i] = GroupMax{Attrs: g.Table.Attrs, Row: row, Cnt: cnt}
		}
		tr, err := s.TupleResultFromMaxima(mt.Unit, md, maxima, inDB)
		if err != nil {
			return nil, err
		}
		res.PerRelation[md.Atom.Relation] = tr
		if tr.Sensitivity > res.LS {
			res.LS = tr.Sensitivity
			res.Best = tr
		}
	}
	return res, nil
}

// FactorGroup is one factor group of a member's multiplicity table T^i: a
// connected group of pieces (see GroupPieces) and its join grouped by the
// member's effective variables (see GroupTable), before selection filtering.
type FactorGroup struct {
	Pieces []*relation.Counted
	Table  *relation.Counted
}

// MemberTables is the factorized multiplicity table of member Member of
// unit Unit: the product of its factor groups' tables.
type MemberTables struct {
	Unit, Member int
	Groups       []FactorGroup
}

// MultiplicityTables builds the factor groups of every non-skipped member's
// multiplicity table in one pass over Opts.Do, one task per group, and
// returns them in member order (units in order, members in unit order).
// When several groups fail, the error of the first in that order is
// returned, so the outcome does not depend on the parallelism.
func (s *Solver) MultiplicityTables() ([]MemberTables, error) {
	var out []MemberTables
	type task struct{ member, group int }
	var tasks []task
	for ui, u := range s.Units {
		for mi, md := range u.Members {
			if md.Skip {
				continue
			}
			groups := GroupPieces(s.Pieces(ui, md))
			mt := MemberTables{Unit: ui, Member: mi, Groups: make([]FactorGroup, len(groups))}
			for gi, g := range groups {
				mt.Groups[gi].Pieces = g
				tasks = append(tasks, task{len(out), gi})
			}
			out = append(out, mt)
		}
	}
	errs := make([]error, len(tasks))
	_ = s.Opts.Do(len(tasks), func(i int) error {
		mt := &out[tasks[i].member]
		g := &mt.Groups[tasks[i].group]
		g.Table, errs[i] = GroupTable(g.Pieces, s.Units[mt.Unit].Members[mt.Member].EffVars)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Pieces gathers the operands of the multiplicity-table join for a member
// of unit ui: the unit's topjoin, the botjoins of its children, and — for
// GHD bags — the base relations of the other members of the same bag
// (Equation 6 extended per Section 5.4).
func (s *Solver) Pieces(ui int, md *Member) []*relation.Counted {
	node := s.Tree.Nodes[ui]
	var out []*relation.Counted
	if node.Parent != nil {
		out = append(out, s.Top[ui])
	}
	for _, c := range node.Children {
		out = append(out, s.Bot[c.Index])
	}
	for _, m2 := range s.Units[ui].Members {
		if m2 != md {
			out = append(out, m2.Base)
		}
	}
	return out
}

// GroupPieces partitions pieces into connected components by shared
// attributes. Within a component the join must be materialized; across
// components the join is a cross product, so maxima multiply — the
// factorization that makes doubly-acyclic queries near-linear (Section 5.3).
func GroupPieces(pieces []*relation.Counted) [][]*relation.Counted {
	n := len(pieces)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if len(relation.Intersect(pieces[i].Attrs, pieces[j].Attrs)) > 0 {
				parent[find(i)] = find(j)
			}
		}
	}
	buckets := make(map[int][]*relation.Counted)
	var order []int
	for i, p := range pieces {
		r := find(i)
		if _, ok := buckets[r]; !ok {
			order = append(order, r)
		}
		buckets[r] = append(buckets[r], p)
	}
	out := make([][]*relation.Counted, 0, len(order))
	for _, r := range order {
		out = append(out, buckets[r])
	}
	return out
}

// orderPieces fixes the join order of one connected group: exact pieces
// first, greedily preferring operands connected to the accumulated schema;
// approximate (top-k truncated) pieces last, each checked to have its
// attributes contained in the accumulated join so its Default applies as a
// sound lookup (see relation.Join). The second return is the accumulated
// attribute union, i.e. the schema of the joined group.
func orderPieces(group []*relation.Counted) ([]*relation.Counted, []string, error) {
	var exact, approx []*relation.Counted
	for _, p := range group {
		if p.Default > 0 {
			approx = append(approx, p)
		} else {
			exact = append(exact, p)
		}
	}
	if len(exact) == 0 {
		if len(approx) == 1 {
			return approx, approx[0].Attrs, nil
		}
		return nil, nil, fmt.Errorf("core: top-k approximation cannot join %d approximate pieces", len(approx))
	}
	ordered := relation.GreedyJoinOrder(exact)
	var attrs []string
	for _, p := range ordered {
		attrs = relation.Union(attrs, p.Attrs)
	}
	for _, p := range approx {
		if !relation.ContainsAll(attrs, p.Attrs) {
			return nil, nil, fmt.Errorf("core: top-k approximation not applicable: piece over %v not covered by %v", p.Attrs, attrs)
		}
		ordered = append(ordered, p)
	}
	return ordered, attrs, nil
}

// GroupTable reduces one joined group to its contribution to the
// multiplicity table of a target with variables targetVars: group by the
// target variables it covers, summing the rest away. The final join is
// fused with the group-by, so the full-width group join is materialized
// only up to the second-to-last operand.
func GroupTable(group []*relation.Counted, targetVars []string) (*relation.Counted, error) {
	ordered, attrs, err := orderPieces(group)
	if err != nil {
		return nil, err
	}
	keep := relation.Intersect(attrs, targetVars)
	if len(ordered) == 1 {
		joined := ordered[0]
		if joined.Default > 0 && len(keep) != len(joined.Attrs) {
			return nil, fmt.Errorf("core: top-k approximation not applicable: cannot sum a truncated join over %v", relation.Minus(joined.Attrs, keep))
		}
		return joined.GroupBy(keep)
	}
	return relation.JoinGroupChain(ordered[0], ordered[1:], keep)
}

// PredFilter returns a row filter implementing the member's selection
// predicates over the given attributes, or nil when none apply (Section
// 5.4: tuples failing a selection have zero sensitivity).
func (md *Member) PredFilter(attrs []string) func(relation.Tuple) bool {
	type bound struct {
		pos int
		op  query.Op
		val int64
	}
	var bounds []bound
	for _, p := range md.Preds {
		for i, a := range attrs {
			if a == p.Var {
				bounds = append(bounds, bound{i, p.Op, p.Value})
			}
		}
	}
	if len(bounds) == 0 {
		return nil
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

// GroupMax is the selection-filtered maximum of one factor group of a
// multiplicity table: the group's attributes, its most frequent row, and
// that row's count. A nil Row with positive Cnt means the top-k truncation
// Default won (any unlisted value achieves the bound).
type GroupMax struct {
	Attrs []string
	Row   relation.Tuple
	Cnt   int64
}

// InDBFunc reports whether a candidate tuple (wildcard positions free)
// currently exists in its relation, returning the row to report when found.
// It abstracts the database membership check so stateful callers can answer
// it from maintained indexes instead of scanning base relations.
type InDBFunc func(md *Member, values relation.Tuple, wildcard []bool) (relation.Tuple, bool)

// DBLookup returns the InDBFunc that scans the base relations of db,
// replacing the candidate with the concrete matching row.
func DBLookup(q *query.Query, db *relation.Database) InDBFunc {
	return func(md *Member, values relation.Tuple, wildcard []bool) (relation.Tuple, bool) {
		r := db.Relation(md.Atom.Relation)
		if r == nil {
			return nil, false
		}
		keep := q.ApplySelections(md.Atom)
		for _, row := range r.Rows {
			if keep != nil && !keep(row) {
				continue
			}
			match := true
			for i := range values {
				if !wildcard[i] && row[i] != values[i] {
					match = false
					break
				}
			}
			if match {
				return row.Clone(), true
			}
		}
		return nil, false
	}
}

// maxRow returns the row of c with the largest count among those that
// satisfy md's selection predicates (Section 5.4: tuples failing a
// selection have zero sensitivity), and that count; a Default above every
// count wins with a nil row. It reads the filtered maximum without
// materializing the filtered table.
func (md *Member) maxRow(c *relation.Counted) (relation.Tuple, int64) {
	keep := md.PredFilter(c.Attrs)
	var best relation.Tuple
	bestCnt := int64(0)
	for i, v := range c.Cnt {
		if v > bestCnt && (keep == nil || keep(c.Row(i))) {
			bestCnt = v
			best = c.Row(i)
		}
	}
	if c.Default > bestCnt {
		return nil, c.Default
	}
	return best, bestCnt
}

// TupleResultFromMaxima assembles a member's most sensitive tuple from
// precomputed per-group maxima (one GroupMax per factor group of the
// multiplicity table), multiplying in the cross-component scale and
// extrapolating wildcard variables. The incremental session engine calls
// this with maxima tracked against its maintained group tables.
func (s *Solver) TupleResultFromMaxima(ui int, md *Member, maxima []GroupMax, inDB InDBFunc) (*TupleResult, error) {
	scale := s.ScaleFor(ui)
	tr := &TupleResult{Relation: md.Atom.Relation, Vars: append([]string(nil), md.Atom.Vars...)}

	sens := scale
	covered := make(map[string]int64)
	wild := make(map[string]bool)
	for _, v := range md.Atom.Vars {
		wild[v] = true
	}
	for _, m := range maxima {
		sens = relation.MulSat(sens, m.Cnt)
		if m.Cnt == 0 {
			sens = 0
			break
		}
		for i, a := range m.Attrs {
			if m.Row != nil {
				covered[a] = m.Row[i]
				wild[a] = false
			}
			// Row == nil: the truncation Default won; the attribute stays a
			// wildcard and the bound still holds.
		}
	}
	tr.Sensitivity = sens
	if sens == 0 {
		return tr, nil
	}

	// Assemble the candidate tuple in atom-variable order, picking values
	// for wildcard variables that satisfy any selection predicates.
	values := make(relation.Tuple, len(md.Atom.Vars))
	wildcard := make([]bool, len(md.Atom.Vars))
	for i, v := range md.Atom.Vars {
		if !wild[v] {
			values[i] = covered[v]
			continue
		}
		wildcard[i] = true
		val, ok := pickValue(predsFor(md.Preds, v))
		if !ok {
			// Contradictory predicates: no insertable tuple exists and the
			// filtered base is empty, so nothing achieves this sensitivity.
			tr.Sensitivity = 0
			return tr, nil
		}
		values[i] = val
	}
	tr.Values = values
	tr.Wildcard = wildcard
	if row, ok := inDB(md, values, wildcard); ok {
		tr.InDatabase = true
		tr.Values = row
	}
	return tr, nil
}

// predsFor returns the predicates of preds over exactly the variable v.
func predsFor(preds []query.Predicate, v string) []query.Predicate {
	var out []query.Predicate
	for _, p := range preds {
		if p.Var == v {
			out = append(out, p)
		}
	}
	return out
}

// pickValue finds an int64 satisfying a conjunction of comparison
// predicates, or reports that none exists.
func pickValue(preds []query.Predicate) (int64, bool) {
	const span = 1 << 40 // practical bounds well inside int64
	lo, hi := int64(-span), int64(span)
	ne := make(map[int64]bool)
	for _, p := range preds {
		switch p.Op {
		case query.Eq:
			if p.Value < lo || p.Value > hi {
				return 0, false
			}
			lo, hi = p.Value, p.Value
		case query.Ne:
			ne[p.Value] = true
		case query.Lt:
			if p.Value-1 < hi {
				hi = p.Value - 1
			}
		case query.Le:
			if p.Value < hi {
				hi = p.Value
			}
		case query.Gt:
			if p.Value+1 > lo {
				lo = p.Value + 1
			}
		case query.Ge:
			if p.Value > lo {
				lo = p.Value
			}
		}
	}
	for v := lo; v <= hi; v++ {
		if !ne[v] {
			return v, true
		}
		if v == hi {
			break
		}
	}
	return 0, false
}
