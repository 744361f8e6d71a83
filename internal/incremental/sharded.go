// Shard support for the serving layer: a partitionable query's session
// state can be split into N independent sub-sessions, one per hash
// partition of the database, so that per-update maintenance routes to the
// one sub-session whose partition the update touches (the per-shard model
// of dynamic evaluation over bounded-degree databases — Berkholz et al.,
// PAPERS.md). This file holds the partitioning rule and the merge step;
// the router and the per-shard writers live in internal/serve.
//
// Soundness. A query Q is partitionable on variable v when v appears in
// every atom at the relation's routing column: every output tuple then
// binds a single v value, and all base rows contributing to it carry that
// value, so they share one hash partition. Hence over the partitioned
// databases D_1 … D_N:
//
//	|Q(D)|  = Σ_i |Q(D_i)|             (outputs partition by h(v))
//	δ(t,Q,D) = δ(t, Q, D_{h(t.v)})     (t only joins rows with its v value)
//	LS(Q,D) = max_i LS(Q, D_i)
//
// The candidate tuples the solver maximizes over are derived from each
// partition's active domain, so every candidate's v value hashes to its own
// partition and the per-partition maxima cover exactly the global ones.
// (Candidates with a wildcard v cannot occur: v appears in every atom, so
// with two or more atoms it is always an effective variable; for the
// single-atom query the all-wildcard candidate is database-independent and
// reported identically by every partition.)
package incremental

import (
	"tsens/internal/core"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// PartitionVar reports the variable on which q can be hash-partitioned:
// the variable sitting at every atom's routing column (pcol maps a
// relation name to its column; the serving layer derives it from
// ServerOptions.PartitionColumns, default column 0). ok is false when the
// atoms disagree — such queries fall back to one unpartitioned session.
func PartitionVar(q *query.Query, pcol func(rel string) int) (string, bool) {
	if len(q.Atoms) == 0 {
		return "", false
	}
	var v string
	for i, a := range q.Atoms {
		col := pcol(a.Relation)
		if col < 0 || col >= len(a.Vars) {
			return "", false
		}
		if i == 0 {
			v = a.Vars[col]
			continue
		}
		if a.Vars[col] != v {
			return "", false
		}
	}
	return v, true
}

// SplitDatabase hash-partitions every relation of db by its routing column
// into n sub-databases; sub-database i holds exactly the rows whose updates
// route to shard i (relation.Shard over the pcol value). Tuples are shared
// with db — Open clones per sub-session.
func SplitDatabase(db *relation.Database, pcol func(rel string) int, n int) ([]*relation.Database, error) {
	names := db.Names()
	split := make([][]*relation.Relation, n)
	for _, name := range names {
		parts := db.Relation(name).Partition(pcol(name), n)
		for i, p := range parts {
			split[i] = append(split[i], p)
		}
	}
	out := make([]*relation.Database, n)
	for i := range out {
		sub, err := relation.NewDatabase(split[i]...)
		if err != nil {
			return nil, err
		}
		out[i] = sub
	}
	return out, nil
}

// MergeResults joins per-partition local-sensitivity results into the
// result over the union database: counts add (saturating), per-relation
// maxima take the most sensitive partition's witness, and LS/Best follow.
// All parts must come from the same query and options (the structural
// fields are copied from the first). The parts are not mutated; with one
// part it is returned as-is.
//
// Callers that cache per-partition results and merge lazily (the serving
// layer assembles a read-time cut from per-shard version rings)
// additionally need every part to be stamped at the same log position: the
// identities above hold only over a partition of one database state, so
// merging parts from different cuts silently produces counts and witnesses
// no single database ever had.
func MergeResults(parts []*core.Result) *core.Result {
	if len(parts) == 1 {
		return parts[0]
	}
	out := &core.Result{
		PerRelation:   make(map[string]*core.TupleResult),
		DoublyAcyclic: parts[0].DoublyAcyclic,
		MaxDegree:     parts[0].MaxDegree,
	}
	for _, p := range parts {
		out.Count = relation.AddSat(out.Count, p.Count)
		out.Approximate = out.Approximate || p.Approximate
		for rel, tr := range p.PerRelation {
			cur, ok := out.PerRelation[rel]
			if !ok || tr.Sensitivity > cur.Sensitivity ||
				(tr.Sensitivity == cur.Sensitivity && tr.InDatabase && !cur.InDatabase) {
				out.PerRelation[rel] = tr
			}
		}
	}
	for _, tr := range out.PerRelation {
		if tr.Sensitivity > out.LS {
			out.LS = tr.Sensitivity
			out.Best = tr
		}
	}
	return out
}
