// Package core implements TSens, the local-sensitivity algorithms of Tao et
// al. (SIGMOD 2020):
//
//   - Algorithm 1 (Section 4): path join queries in O(n log n);
//   - Algorithm 2 (Section 5): full acyclic conjunctive queries via join
//     trees, computing topjoins ⊤(R), botjoins ⊥(R), and per-relation
//     multiplicity tables T^i whose maximum entry is the local sensitivity;
//   - the GHD extension (Section 5.4) for non-acyclic queries;
//   - the extensions of Section 5.4: selections, disconnected join forests,
//     single-occurrence variable extrapolation, skip-relations (FK–PK
//     joins), and the top-k approximation;
//   - the naive polynomial-data-complexity oracle of Theorem 3.1, used to
//     cross-validate everything on small instances.
//
// The pass state (units, join tree, botjoin/topjoin tables, component
// totals) is externalized in the exported Solver type so that stateful
// callers — the incremental session engine in internal/incremental — can
// retain it across updates and patch it in place instead of recomputing
// every pass per database.
package core

import (
	"fmt"

	"tsens/internal/ghd"
	"tsens/internal/par"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/yannakakis"
)

// Options configures a sensitivity computation.
type Options struct {
	// Decomposition assigns atoms to GHD bags for cyclic queries. Nil means
	// the query must be acyclic (singleton bags).
	Decomposition *ghd.Decomposition
	// SkipRelations lists relations whose multiplicity table is not
	// computed, following the paper's treatment of FK–PK-joined tables
	// whose tuple sensitivity is known to be at most one (Section 7.2).
	// Skipped relations do not contribute to the reported LS.
	SkipRelations []string
	// TopK, when positive, truncates every topjoin and botjoin to its k
	// most frequent rows, clamping the remainder to the k-th count
	// (Section 5.4, "Efficient approximations"). The result becomes an
	// upper bound and Result.Approximate is set.
	TopK int
	// Parallelism bounds the worker goroutines used for per-atom
	// preprocessing, GHD bag materialization, the botjoin/topjoin passes
	// (independent subtrees run concurrently), the multiplicity tables
	// (one task per factor group of every member's table), and
	// tuple-sensitivity scans. 0 means runtime.GOMAXPROCS(0); 1 forces
	// sequential execution. Results are identical at any setting.
	Parallelism int
	// Pool, when non-nil, supplies the worker goroutines for every parallel
	// phase instead of spawning fresh ones per call, amortizing goroutine
	// startup across solver invocations (repeated TSensDP releases,
	// incremental session rebuilds). Parallelism still bounds how much of
	// the pool one call uses.
	Pool *par.Pool
}

func (o Options) skipped(rel string) bool {
	for _, s := range o.SkipRelations {
		if s == rel {
			return true
		}
	}
	return false
}

// Do runs fn over [0, n) with the options' parallelism, on the shared pool
// when one is configured.
func (o Options) Do(n int, fn func(int) error) error {
	if o.Pool != nil {
		return o.Pool.Do(o.Parallelism, n, fn)
	}
	return par.Do(o.Parallelism, n, fn)
}

// DAG runs fn over a dependency graph with the options' parallelism, on the
// shared pool when one is configured.
func (o Options) DAG(deps [][]int, fn func(int) error) error {
	if o.Pool != nil {
		return o.Pool.DAG(o.Parallelism, deps, fn)
	}
	return par.DAG(o.Parallelism, deps, fn)
}

// TupleResult describes the most sensitive tuple found for one relation.
type TupleResult struct {
	Relation string
	// Vars and Values give the full candidate tuple in the relation's
	// column order (via the atom's variable renaming). Values is nil when
	// Sensitivity is zero (no tuple can change the output).
	Vars   []string
	Values relation.Tuple
	// Wildcard[i] is true when variable i is unconstrained — any domain
	// value achieves the same sensitivity (single-occurrence variables,
	// Section 5.4 "Other", and endpoints of path queries).
	Wildcard []bool
	// Sensitivity is δ(t*, Q, D), an upper bound when Approximate.
	Sensitivity int64
	// InDatabase reports whether the candidate currently exists in the
	// relation (so the sensitivity is achieved by deletion as well as by
	// insertion).
	InDatabase bool
}

// Result is the outcome of a local-sensitivity computation.
type Result struct {
	// LS = max over non-skipped relations of the tuple sensitivity.
	LS int64
	// Best is the most sensitive tuple achieving LS; nil when LS is zero.
	Best *TupleResult
	// PerRelation maps each non-skipped relation to its most sensitive
	// tuple (Figure 6b reports these).
	PerRelation map[string]*TupleResult
	// Count is |Q(D)|, a byproduct of the botjoin pass (upper bound when
	// Approximate).
	Count int64
	// DoublyAcyclic reports whether the join tree witnessed the
	// doubly-acyclic property of Section 5.3.
	DoublyAcyclic bool
	// MaxDegree is the maximum join-tree degree d of Theorem 5.1.
	MaxDegree int
	// Approximate is set when TopK truncation was applied anywhere.
	Approximate bool
}

// Member is one base atom assigned to a unit (bag).
type Member struct {
	Atom    query.Atom
	EffVars []string          // variables kept (occurring in ≥2 atoms)
	Base    *relation.Counted // counted base relation over EffVars
	Preds   []query.Predicate // per-tuple selection predicates
	Skip    bool
}

// Unit is one node of the (bag) join tree the algorithm runs on. For an
// acyclic query every unit holds exactly one member and Rel is that
// member's base; for GHD bags Rel is the materialized join of the members.
type Unit struct {
	Vars    []string
	Rel     *relation.Counted
	Members []*Member
}

// Solver carries the preprocessed pass state shared by LocalSensitivity,
// TupleSensitivities, and the incremental session engine. The exported
// fields are owned by the solver; stateful callers may patch the counted
// tables in place (via relation.ApplyDelta) as long as they keep Bot, Top,
// and Totals mutually consistent.
type Solver struct {
	Q     *query.Query
	Opts  Options
	Units []*Unit
	Tree  *query.Tree // nodes index into Units
	Bot   []*relation.Counted
	Top   []*relation.Counted
	// Comp[i] is the component id (root node index) of unit i; Totals maps
	// component id to that component's |Q_component(D)|.
	Comp   []int
	Totals map[int]int64
}

// NewSolver binds the query, applies selections, drops single-occurrence
// variables, materializes GHD bags, builds the unit join forest, and runs
// the botjoin/topjoin passes.
func NewSolver(q *query.Query, db *relation.Database, opts Options) (*Solver, error) {
	if _, err := q.Bind(db); err != nil {
		return nil, err
	}
	occ := q.VarOccurrences()

	// Per-atom preprocessing, one independent task per atom.
	members := make([]*Member, len(q.Atoms))
	err := opts.Do(len(q.Atoms), func(i int) error {
		a := q.Atoms[i]
		var eff []string
		for _, v := range a.Vars {
			if occ[v] > 1 {
				eff = append(eff, v)
			}
		}
		proj, err := yannakakis.BaseCountedProject(q, db, a, eff)
		if err != nil {
			return err
		}
		members[i] = &Member{
			Atom:    a,
			EffVars: eff,
			Base:    proj,
			Preds:   q.Selections[a.Relation],
			Skip:    opts.skipped(a.Relation),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Bag assignment.
	d := opts.Decomposition
	if d == nil {
		var err error
		d, err = ghd.Trivial(q)
		if err != nil {
			return nil, fmt.Errorf("core: query is cyclic; provide a GHD decomposition: %w", err)
		}
	} else if _, err := ghd.FromBags(q, d.Bags); err != nil {
		return nil, err
	}

	s := &Solver{Q: q, Opts: opts}
	s.Units = make([]*Unit, len(d.Bags))
	unitAtoms := make([]query.Atom, len(d.Bags))
	err = opts.Do(len(d.Bags), func(bi int) error {
		u := &Unit{}
		var bases []*relation.Counted
		for _, ai := range d.Bags[bi] {
			u.Members = append(u.Members, members[ai])
			u.Vars = relation.Union(u.Vars, members[ai].EffVars)
			bases = append(bases, members[ai].Base)
		}
		if len(bases) == 1 {
			u.Rel = bases[0]
		} else {
			g, err := ghd.MaterializeGrouped(bases, u.Vars)
			if err != nil {
				return err
			}
			u.Rel = g
		}
		s.Units[bi] = u
		unitAtoms[bi] = query.Atom{Relation: fmt.Sprintf("unit%d", bi), Vars: u.Vars}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tree, err := query.BuildJoinTree(unitAtoms)
	if err != nil {
		return nil, fmt.Errorf("core: bag hypergraph unexpectedly cyclic: %w", err)
	}
	s.Tree = tree

	if err := s.passes(); err != nil {
		return nil, err
	}
	return s, nil
}

// passes computes botjoins (post-order), topjoins (pre-order), component
// membership and per-component totals, implementing steps I and II of
// Algorithm 2. Each edge runs the fused join+group-by kernel, and nodes
// whose dependencies are settled (children for botjoins, the parent for
// topjoins) execute concurrently on a bounded worker pool, so independent
// subtrees of the join forest proceed in parallel.
func (s *Solver) passes() error {
	n := len(s.Units)
	s.Bot = make([]*relation.Counted, n)
	s.Top = make([]*relation.Counted, n)
	s.Comp = make([]int, n)
	s.Totals = make(map[int]int64)

	// Botjoins, leaf to root: ⊥(Ri) = γ_{Ai∩Ap}( r⋈(Ri, {⊥(Rj): children}) ).
	botDeps := make([][]int, n)
	for i, node := range s.Tree.Nodes {
		for _, c := range node.Children {
			botDeps[i] = append(botDeps[i], c.Index)
		}
	}
	err := s.Opts.DAG(botDeps, func(i int) error {
		node := s.Tree.Nodes[i]
		bots := make([]*relation.Counted, len(node.Children))
		for k, c := range node.Children {
			bots[k] = s.Bot[c.Index]
		}
		g, err := relation.JoinGroupChain(s.Units[i].Rel, bots, node.ConnectorVars())
		if err != nil {
			return err
		}
		if s.Opts.TopK > 0 {
			g = g.TopK(s.Opts.TopK)
		}
		s.Bot[i] = g
		return nil
	})
	if err != nil {
		return err
	}

	// Topjoins, root to leaf:
	// ⊤(Ri) = γ_{Ai∩Ap}( r⋈(p(Ri), ⊤(p(Ri)), {⊥(Rj): siblings}) ).
	topDeps := make([][]int, n)
	for i, node := range s.Tree.Nodes {
		if node.Parent != nil {
			topDeps[i] = append(topDeps[i], node.Parent.Index)
		}
	}
	err = s.Opts.DAG(topDeps, func(i int) error {
		node := s.Tree.Nodes[i]
		if node.Parent == nil {
			s.Top[i] = nil
			return nil
		}
		var operands []*relation.Counted
		if t := s.Top[node.Parent.Index]; t != nil {
			operands = append(operands, t)
		}
		for _, sib := range node.Siblings() {
			operands = append(operands, s.Bot[sib.Index])
		}
		g, err := relation.JoinGroupChain(s.Units[node.Parent.Index].Rel, operands, node.ConnectorVars())
		if err != nil {
			return err
		}
		if s.Opts.TopK > 0 {
			g = g.TopK(s.Opts.TopK)
		}
		s.Top[i] = g
		return nil
	})
	if err != nil {
		return err
	}

	// Components and totals. The botjoin of a root is grouped by the empty
	// connector, so its SumCnt is the component's output count.
	for _, root := range s.Tree.Roots {
		var mark func(n *query.Node)
		mark = func(n *query.Node) {
			s.Comp[n.Index] = root.Index
			for _, c := range n.Children {
				mark(c)
			}
		}
		mark(root)
		s.Totals[root.Index] = s.Bot[root.Index].SumCnt()
	}
	return nil
}

// ScaleFor returns the product of the output counts of every component
// other than the one containing unit ui (Section 5.4, "Disconnected join
// trees").
func (s *Solver) ScaleFor(ui int) int64 {
	scale := int64(1)
	for root, total := range s.Totals {
		if root == s.Comp[ui] {
			continue
		}
		scale = relation.MulSat(scale, total)
	}
	return scale
}

// CountTotal returns |Q(D)| as the product of component totals.
func (s *Solver) CountTotal() int64 {
	total := int64(1)
	for _, t := range s.Totals {
		total = relation.MulSat(total, t)
	}
	return total
}
