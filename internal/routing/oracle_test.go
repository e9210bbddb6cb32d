package routing

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// refRouter holds the scratch of referenceRoute.
type refRouter struct {
	g         *topology.Graph
	epoch     int
	nodeStamp []int
	mass      []float64
	dagNodes  []topology.NodeID
	linkStamp []int
	linkFrac  []float64
	links     []topology.LinkID
	fracs     []float64
}

// referenceRoute is the equal-cost splitter as it stood before the
// per-tree DAG index: every pair re-derives its tight DAG from the graph
// and sorts the DAG's nodes. topology.Router must match it link for link
// and fraction bit for fraction bit.
func (r *refRouter) referenceRoute(t *topology.Tree, dst topology.NodeID) ([]topology.LinkID, []float64, error) {
	src := t.Src
	if t.Dist[dst] == topology.Unreachable {
		return nil, nil, fmt.Errorf("topology: node %d unreachable from %d", dst, src)
	}
	g := r.g
	r.links = r.links[:0]

	if len(r.nodeStamp) != g.NumNodes() || len(r.linkStamp) != g.NumLinks() {
		r.nodeStamp, r.mass = make([]int, g.NumNodes()), make([]float64, g.NumNodes())
		r.linkStamp, r.linkFrac = make([]int, g.NumLinks()), make([]float64, g.NumLinks())
	}
	r.epoch++
	ep := r.epoch

	// Backward reachability from dst over tight edges: a node u with
	// finite dist and a tight chain to dst lies on a shortest src→dst
	// path (dist[u] is minimal and the chain costs dist[dst] − dist[u]).
	r.dagNodes = append(r.dagNodes[:0], dst)
	r.nodeStamp[dst] = ep
	r.mass[dst] = 0
	for head := 0; head < len(r.dagNodes); head++ {
		v := r.dagNodes[head]
		for _, lid := range g.In(v) {
			l := g.Link(lid)
			if l.Down {
				continue
			}
			u := l.Src
			if t.Dist[u] == topology.Unreachable || t.Dist[u]+l.Weight != t.Dist[v] {
				continue
			}
			if r.nodeStamp[u] != ep {
				r.nodeStamp[u] = ep
				r.mass[u] = 0
				r.dagNodes = append(r.dagNodes, u)
			}
		}
	}
	if r.nodeStamp[src] != ep {
		return nil, nil, fmt.Errorf("topology: no tight path from %d to %d: links went down after SPF", src, dst)
	}

	// Tight edges only go strictly downhill in dist (positive weights),
	// so ascending (dist, NodeID) is a topological order of the DAG.
	slices.SortFunc(r.dagNodes, func(a, b topology.NodeID) int {
		return cmp.Or(cmp.Compare(t.Dist[a], t.Dist[b]), cmp.Compare(a, b))
	})

	r.mass[src] = 1
	for _, u := range r.dagNodes {
		if u == dst || r.mass[u] == 0 {
			continue
		}
		tight := func(l topology.Link) bool {
			return !l.Down && r.nodeStamp[l.Dst] == ep && t.Dist[u]+l.Weight == t.Dist[l.Dst]
		}
		deg := 0
		for _, lid := range g.Out(u) {
			if tight(g.Link(lid)) {
				deg++
			}
		}
		share := r.mass[u] / float64(deg)
		for _, lid := range g.Out(u) {
			l := g.Link(lid)
			if !tight(l) {
				continue
			}
			if r.linkStamp[lid] != ep {
				r.linkStamp[lid] = ep
				r.linkFrac[lid] = 0
				r.links = append(r.links, lid)
			}
			r.linkFrac[lid] += share
			r.mass[l.Dst] += share
		}
	}

	slices.Sort(r.links)
	r.fracs = r.fracs[:0]
	for _, lid := range r.links {
		// Summed splits can exceed 1 by an ulp; the solver requires ≤ 1.
		r.fracs = append(r.fracs, min(r.linkFrac[lid], 1))
	}
	return r.links, r.fracs, nil
}

// checkRowsAgainstReference holds every row of m to referenceRoute over
// tbl's trees: the same links and the same fraction bits.
func checkRowsAgainstReference(t *testing.T, tbl *Table, m *Matrix) {
	t.Helper()
	ref := &refRouter{g: tbl.g}
	for k, pr := range m.Pairs {
		links, fracs, err := ref.referenceRoute(&tbl.trees[pr.Src], pr.Dst)
		if err != nil {
			t.Fatalf("pair %d (%d->%d): reference failed on a routed pair: %v", k, pr.Src, pr.Dst, err)
		}
		if !slices.Equal(m.Rows[k], links) {
			t.Fatalf("pair %d (%d->%d): row %v, reference %v", k, pr.Src, pr.Dst, m.Rows[k], links)
		}
		for i := range fracs {
			if got, want := m.Fracs[k][i], fracs[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %d link %d: frac %x, reference %x", k, links[i], math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// checkECMPAgainstReference toggles links down and back up after
// ComputeTable, then routes every ordered pair alone and all routable
// pairs together in shuffled source order: a pair fails exactly where
// referenceRoute fails, with the same error, and every row matches it.
func checkECMPAgainstReference(t *testing.T, r *rng.Source, g *topology.Graph, tbl *Table) {
	t.Helper()
	for lid := range g.NumLinks() {
		if r.Intn(6) == 0 {
			g.SetDown(topology.LinkID(lid), !g.Link(topology.LinkID(lid)).Down)
		}
	}
	ref := &refRouter{g: g}
	var routable []ODPair
	for s := range g.NumNodes() {
		for d := range g.NumNodes() {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			if s == d || !tbl.Reachable(src, dst) {
				continue
			}
			pair := ODPair{Name: "p" + strconv.Itoa(len(routable)), Src: src, Dst: dst}
			m, err := BuildMatrixECMP(tbl, []ODPair{pair})
			_, _, refErr := ref.referenceRoute(&tbl.trees[s], dst)
			if refErr != nil {
				want := fmt.Sprintf("routing: OD pair %q: %v", pair.Name, refErr)
				if err == nil || err.Error() != want {
					t.Fatalf("%d->%d: error %v, reference %q", s, d, err, want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d->%d: %v; reference routes it", s, d, err)
			}
			checkRowsAgainstReference(t, tbl, m)
			routable = append(routable, pair)
		}
	}
	perm := r.Perm(len(routable))
	shuffled := make([]ODPair, len(routable))
	for i, j := range perm {
		shuffled[i] = routable[j]
	}
	m, err := BuildMatrixECMP(tbl, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsAgainstReference(t, tbl, m)
}

// TestECMPMatchesReference runs the fuzz body's reference comparison over
// a fixed sweep of seeds and sizes.
func TestECMPMatchesReference(t *testing.T) {
	for seed := range uint64(200) {
		routerOracle(t, seed, uint8(seed*7), uint8(seed*13))
	}
}

// TestBuildMatrixECMPMatchesReferenceAtScale routes the 800-link
// generated instance's pairs, in the generator's sorted order and
// shuffled, and holds both matrices to referenceRoute.
func TestBuildMatrixECMPMatchesReferenceAtScale(t *testing.T) {
	inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: 1, Links: 800, ECMP: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := generatedPairs(inst)
	tbl := ComputeTable(inst.Graph)
	for _, order := range []string{"sorted", "shuffled"} {
		if order == "shuffled" {
			r := rng.New(9)
			for i := len(pairs) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
		}
		m, err := BuildMatrixECMP(tbl, pairs)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAgainstReference(t, tbl, m)
	}
}

// TestBuildMatrixErrorNamesFirstPair: the pairs are visited grouped by
// source, yet the error still names the lowest-indexed failing pair.
func TestBuildMatrixErrorNamesFirstPair(t *testing.T) {
	g, ids := ecmpDiamond(t)
	tbl := ComputeTable(g)
	pairs := []ODPair{
		{Name: "ok", Src: ids["E"], Dst: ids["A"]},
		{Name: "first", Src: ids["D"], Dst: ids["D"]},
		{Name: "second", Src: ids["A"], Dst: ids["A"]},
	}
	for _, build := range []func(*Table, []ODPair) (*Matrix, error){BuildMatrix, BuildMatrixECMP} {
		if _, err := build(tbl, pairs); err == nil || err.Error() != `routing: OD pair "first" has identical endpoints` {
			t.Fatalf("error %v, want the one naming pair \"first\"", err)
		}
	}
}

// generatedPairs names a generated instance's sampled pairs as OD pairs.
func generatedPairs(inst *topology.ScaleInstance) []ODPair {
	pairs := make([]ODPair, inst.NumPairs())
	for k := range pairs {
		pairs[k] = ODPair{Name: strconv.Itoa(k), Src: inst.PairSrc[k], Dst: inst.PairDst[k]}
	}
	return pairs
}
