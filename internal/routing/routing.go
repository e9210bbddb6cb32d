// Package routing derives, from a topology.Graph, the routing matrix R
// the optimization framework consumes: r[k][i] is the fraction of OD
// pair k's traffic that crosses link i (paper, Section III) — 1 on every
// link of the pair's path under single-path routing, the equal-split
// share under ECMP.
//
// The shortest-path computation itself (an ISIS-like SPF with a
// deterministic tie-break), the path walk and the equal-cost splitter
// live in topology.Router, shared with the instance generator; this
// package keeps the all-pairs Table of its trees and assembles Matrix
// rows from them, so a given topology always yields the same routing
// matrix (experiments must be reproducible).
package routing

import (
	"cmp"
	"fmt"
	"slices"

	"netsamp/internal/topology"
)

// ODPair names a measurement-task origin-destination pair. In the paper's
// terminology origin and destination can be any aggregate (end-host,
// prefix, AS, PoP); here they are graph nodes.
type ODPair struct {
	Name     string
	Src, Dst topology.NodeID
}

// Path is a directed path through the graph.
type Path struct {
	Links []topology.LinkID
	Cost  int
}

// Table holds the shortest-path tree of every node, i.e. the shortest
// path between every ordered pair of nodes. It is read-only after
// ComputeTable and safe for concurrent use.
type Table struct {
	g     *topology.Graph
	trees []topology.Tree
}

// ComputeTable runs SPF from every node and returns the routing table.
// Down links are ignored. Access links are routed over normally (traffic
// must ingress/egress through them); only the monitorability decision
// treats them specially.
func ComputeTable(g *topology.Graph) *Table {
	t := &Table{g: g, trees: make([]topology.Tree, g.NumNodes())}
	r := topology.NewRouter(g)
	for src := range t.trees {
		r.SPF(topology.NodeID(src), &t.trees[src])
	}
	return t
}

// tree returns src's shortest-path tree if dst is reachable in it. A
// NodeID outside the table is a *topology.NodeRangeError.
func (t *Table) tree(src, dst topology.NodeID) (*topology.Tree, error) {
	for _, id := range [...]topology.NodeID{src, dst} {
		if id < 0 || int(id) >= len(t.trees) {
			return nil, &topology.NodeRangeError{ID: id, Nodes: len(t.trees)}
		}
	}
	tr := &t.trees[src]
	if tr.Dist[dst] == topology.Unreachable {
		return nil, fmt.Errorf("routing: %v unreachable from %v", dst, src)
	}
	return tr, nil
}

// Reachable reports whether dst is reachable from src.
func (t *Table) Reachable(src, dst topology.NodeID) bool {
	_, err := t.tree(src, dst)
	return err == nil
}

// Cost returns the IGP cost of the path src->dst. It returns an error if
// dst is unreachable.
func (t *Table) Cost(src, dst topology.NodeID) (int, error) {
	tr, err := t.tree(src, dst)
	if err != nil {
		return 0, err
	}
	return tr.Dist[dst], nil
}

// route returns the links (and, under ecmp, fractions) of src->dst as
// scratch of r; see topology.Router.Route.
func (t *Table) route(r *topology.Router, src, dst topology.NodeID, ecmp bool) ([]topology.LinkID, []float64, error) {
	tr, err := t.tree(src, dst)
	if err != nil {
		return nil, nil, err
	}
	return r.Route(tr, dst, ecmp)
}

// PathBetween returns the shortest path from src to dst. An empty path
// with zero cost is returned when src == dst. It returns an error if dst
// is unreachable.
func (t *Table) PathBetween(src, dst topology.NodeID) (Path, error) {
	links, _, err := t.route(topology.NewRouter(t.g), src, dst, false)
	if err != nil || len(links) == 0 {
		return Path{}, err
	}
	return Path{Links: links, Cost: t.trees[src].Dist[dst]}, nil
}

// Matrix is the routing matrix restricted to a set of OD pairs: one
// sparse row per pair listing the links it traverses. Link identities
// are topology.LinkIDs; the optimizer maps them to dense indices over
// the candidate monitor set.
//
// The rows built by BuildMatrix and BuildMatrixECMP share one backing
// array (and the fractions another); each row's capacity ends at its
// last entry, so appending to a row reallocates it rather than
// overwriting its neighbour.
type Matrix struct {
	Pairs []ODPair
	Rows  [][]topology.LinkID
	// Fracs, when non-nil, holds the ECMP traffic fraction of each entry
	// of Rows (see BuildMatrixECMP). Nil means single-path routing, i.e.
	// every fraction is 1; so does a nil row Fracs[k] for row k. A
	// non-nil Fracs[k] has one entry per entry of Rows[k].
	Fracs [][]float64
}

// BuildMatrix routes every OD pair and assembles the routing matrix. It
// returns an error if any pair is unroutable or degenerate (src == dst).
func BuildMatrix(t *Table, pairs []ODPair) (*Matrix, error) { return buildMatrix(t, pairs, false) }

// buildMatrix visits the pairs grouped by source (a stable order by Src),
// so the router builds each source tree's DAG index once, and appends
// every row to one flat store in visit order; row k still lands at
// Rows[k]. Of several failing pairs, the error names the lowest index.
func buildMatrix(t *Table, pairs []ODPair, ecmp bool) (*Matrix, error) {
	visit := make([]int32, len(pairs))
	for k := range visit {
		visit[k] = int32(k)
	}
	slices.SortStableFunc(visit, func(a, b int32) int { return cmp.Compare(pairs[a].Src, pairs[b].Src) })

	// Hop counts of a few to ~10 are typical; the stores grow if not.
	est := 8 * len(pairs)
	flat := make([]topology.LinkID, 0, est)
	var flatFracs []float64
	if ecmp {
		flatFracs = make([]float64, 0, est)
	}
	end := make([]int32, len(pairs)) // end[i]: flat length after the i-th visited row
	r := topology.NewRouter(t.g)
	var err error
	errK := len(pairs)
	for i, k := range visit {
		pr := pairs[k]
		var perr error
		if pr.Src == pr.Dst {
			perr = fmt.Errorf("routing: OD pair %q has identical endpoints", pr.Name)
		} else if links, fracs, rerr := t.route(r, pr.Src, pr.Dst, ecmp); rerr != nil {
			perr = fmt.Errorf("routing: OD pair %q: %w", pr.Name, rerr)
		} else {
			flat = append(flat, links...)
			flatFracs = append(flatFracs, fracs...)
		}
		if perr != nil && int(k) < errK {
			errK, err = int(k), perr
		}
		end[i] = int32(len(flat))
	}
	if err != nil {
		return nil, err
	}
	// A matrix can outlive many intervals (the plan cache keys on it), so
	// it keeps no slack from the estimate.
	if cap(flat) > len(flat) {
		flat, flatFracs = slices.Clone(flat), slices.Clone(flatFracs)
	}

	m := &Matrix{Pairs: slices.Clone(pairs), Rows: make([][]topology.LinkID, len(pairs))}
	if ecmp {
		m.Fracs = make([][]float64, len(pairs))
	}
	lo := int32(0)
	for i, k := range visit {
		hi := end[i]
		m.Rows[k] = flat[lo:hi:hi]
		if ecmp {
			m.Fracs[k] = flatFracs[lo:hi:hi]
		}
		lo = hi
	}
	return m, nil
}

// Traverses reports whether OD pair k crosses link id (entry r_{k,i}).
func (m *Matrix) Traverses(k int, id topology.LinkID) bool {
	for _, l := range m.Rows[k] {
		if l == id {
			return true
		}
	}
	return false
}

// LinkSet returns the union L of links traversed by any OD pair, in
// ascending LinkID order (the set the paper calls L ⊆ E).
func (m *Matrix) LinkSet() []topology.LinkID {
	seen := map[topology.LinkID]bool{}
	for _, row := range m.Rows {
		for _, l := range row {
			seen[l] = true
		}
	}
	return topology.SortedKeys(seen)
}

// PairsOnLink returns the indices of OD pairs that traverse link id.
func (m *Matrix) PairsOnLink(id topology.LinkID) []int {
	var out []int
	for k := range m.Rows {
		if m.Traverses(k, id) {
			out = append(out, k)
		}
	}
	return out
}
