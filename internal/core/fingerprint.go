package core

// Structural plan fingerprints for multi-query sharing. A fingerprint
// canonically identifies the *content* of a maintained table from the plan
// shape alone: two solvers whose subtrees fingerprint equal are guaranteed
// to materialize identical base projections, unit relations, and botjoins
// over the same database — that is the soundness contract the hash-consing
// layer (incremental.PlanStore) builds on. The encoding is conservative:
// variable names participate verbatim, so structurally isomorphic plans
// under a renaming do NOT fingerprint equal (their tables would carry
// different attribute lists and could not be pointer-shared anyway). A
// missed sharing opportunity costs memory; a false equality would corrupt
// every subscriber — the design errs entirely toward the former.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"tsens/internal/relation"
)

// PlanShape is the fingerprint view of a built solver: one fingerprint per
// member base projection and one per join-tree node (covering the node's
// unit relation and botjoin, folded over the whole subtree).
type PlanShape struct {
	// Bases[ui][mi] fingerprints Units[ui].Members[mi].Base.
	Bases [][]string
	// Nodes[ui] fingerprints the subtree rooted at tree node ui: its unit
	// relation, botjoin, and (recursively) everything below.
	Nodes []string
}

func fpHash(parts ...string) string {
	h := sha256.Sum256([]byte(relation.CanonKey(parts...)))
	return hex.EncodeToString(h[:])
}

// baseFingerprint canonically identifies a member's base projection: the
// relation it scans, the atom's variable binding (which fixes both arity
// and the projection columns), the effective variables kept, the selection
// predicates applied before counting, and the skip flag.
func baseFingerprint(md *Member) string {
	preds := make([]string, len(md.Preds))
	for i, p := range md.Preds {
		preds[i] = p.String()
	}
	sort.Strings(preds)
	return fpHash("base",
		md.Atom.Relation,
		strings.Join(md.Atom.Vars, ","),
		strings.Join(md.EffVars, ","),
		strings.Join(preds, "&"),
		fmt.Sprintf("skip=%t", md.Skip),
	)
}

// PlanShape fingerprints the solver's plan. Node fingerprints are computed
// leaf-to-root: each folds the unit's variables, the connector to its
// parent (the botjoin's grouping attributes — identical subtrees under
// different connectors materialize different botjoins), its member base
// fingerprints in bag order, and its children's fingerprints sorted (a
// botjoin is a join over the child multiset; child order is not content).
func (s *Solver) PlanShape() *PlanShape {
	ps := &PlanShape{
		Bases: make([][]string, len(s.Units)),
		Nodes: make([]string, len(s.Units)),
	}
	for ui, u := range s.Units {
		ps.Bases[ui] = make([]string, len(u.Members))
		for mi, md := range u.Members {
			ps.Bases[ui][mi] = baseFingerprint(md)
		}
	}
	var nodeFP func(i int) string
	nodeFP = func(i int) string {
		if ps.Nodes[i] != "" {
			return ps.Nodes[i]
		}
		node := s.Tree.Nodes[i]
		children := make([]string, len(node.Children))
		for k, c := range node.Children {
			children[k] = nodeFP(c.Index)
		}
		sort.Strings(children)
		ps.Nodes[i] = fpHash(append([]string{
			"node",
			strings.Join(s.Units[i].Vars, ","),
			strings.Join(node.ConnectorVars(), ","),
			strings.Join(ps.Bases[i], "|"),
		}, children...)...)
		return ps.Nodes[i]
	}
	for i := range s.Units {
		nodeFP(i)
	}
	return ps
}
