package routing

import (
	"math"
	"testing"

	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// floydWarshall is an independent all-pairs shortest-path reference used
// to cross-check the SPF implementation on random graphs.
func floydWarshall(g *topology.Graph) [][]int {
	n := g.NumNodes()
	const inf = math.MaxInt32
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = inf
			}
		}
	}
	for _, l := range g.Links() {
		if l.Down {
			continue
		}
		if l.Weight < dist[l.Src][l.Dst] {
			dist[l.Src][l.Dst] = l.Weight
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] == inf {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] == inf {
					continue
				}
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	return dist
}

// randomGraph builds a random connected-ish directed graph.
func randomGraph(r *rng.Source, nodes, extraLinks int) *topology.Graph {
	g := topology.New()
	for i := 0; i < nodes; i++ {
		g.AddNode(string(rune('A'+i%26)) + string(rune('0'+i/26)))
	}
	// Spanning chain guarantees weak connectivity.
	for i := 1; i < nodes; i++ {
		g.AddDuplex(topology.NodeID(i-1), topology.NodeID(i), topology.OC48, 1+r.Intn(20))
	}
	for i := 0; i < extraLinks; i++ {
		a := topology.NodeID(r.Intn(nodes))
		b := topology.NodeID(r.Intn(nodes))
		if a == b {
			continue
		}
		g.AddLink(a, b, topology.OC12, 1+r.Intn(20))
	}
	return g
}

// TestSPFMatchesFloydWarshall cross-checks distances on random graphs.
func TestSPFMatchesFloydWarshall(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		nodes := 3 + r.Intn(15)
		g := randomGraph(r, nodes, r.Intn(3*nodes))
		tbl := ComputeTable(g)
		want := floydWarshall(g)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				src, dst := topology.NodeID(s), topology.NodeID(d)
				if s == d {
					continue
				}
				reach := want[s][d] != math.MaxInt32
				if tbl.Reachable(src, dst) != reach {
					t.Fatalf("trial %d: reachability(%d,%d) mismatch", trial, s, d)
				}
				if !reach {
					continue
				}
				got, err := tbl.Cost(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[s][d] {
					t.Fatalf("trial %d: dist(%d,%d) = %d, Floyd-Warshall %d", trial, s, d, got, want[s][d])
				}
			}
		}
	}
}

// TestECMPFractionsConservation: on random graphs, for every reachable
// pair the fractions flowing into the destination sum to 1 and flow is
// conserved at every intermediate node.
func TestECMPFractionsConservation(t *testing.T) {
	r := rng.New(88)
	for trial := 0; trial < 30; trial++ {
		nodes := 3 + r.Intn(12)
		g := randomGraph(r, nodes, r.Intn(3*nodes))
		tbl := ComputeTable(g)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				src, dst := topology.NodeID(s), topology.NodeID(d)
				if s == d || !tbl.Reachable(src, dst) {
					continue
				}
				hops, err := tbl.Fractions(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				in := make(map[topology.NodeID]float64)
				out := make(map[topology.NodeID]float64)
				for _, h := range hops {
					l := g.Link(h.Link)
					if !(h.Frac > 0 && h.Frac <= 1) {
						t.Fatalf("trial %d: fraction of link %d on %d->%d is %v, want in (0, 1]", trial, h.Link, s, d, h.Frac)
					}
					out[l.Src] += h.Frac
					in[l.Dst] += h.Frac
				}
				if math.Abs(out[src]-1) > 1e-9 {
					t.Fatalf("source emits %v", out[src])
				}
				if math.Abs(in[dst]-1) > 1e-9 {
					t.Fatalf("destination receives %v", in[dst])
				}
				for n := topology.NodeID(0); int(n) < nodes; n++ {
					if n == src || n == dst {
						continue
					}
					if math.Abs(in[n]-out[n]) > 1e-9 {
						t.Fatalf("flow not conserved at %d: in %v out %v", n, in[n], out[n])
					}
				}
			}
		}
	}
}

// TestECMPConsistentWithSinglePath: the single shortest path must be a
// subset of the ECMP DAG, and its cost consistent.
func TestECMPConsistentWithSinglePath(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		nodes := 3 + r.Intn(10)
		g := randomGraph(r, nodes, r.Intn(2*nodes))
		tbl := ComputeTable(g)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				src, dst := topology.NodeID(s), topology.NodeID(d)
				if s == d || !tbl.Reachable(src, dst) {
					continue
				}
				path, err := tbl.PathBetween(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				hops, err := tbl.Fractions(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				onDAG := map[topology.LinkID]bool{}
				for _, h := range hops {
					onDAG[h.Link] = true
				}
				for _, lid := range path.Links {
					if !onDAG[lid] {
						t.Fatalf("trial %d: single path uses link %d outside the ECMP DAG", trial, lid)
					}
				}
			}
		}
	}
}

// FuzzRouterAgainstFloydWarshall builds small random multigraphs — no
// guaranteed connectivity, parallel links, some links down — and holds
// the router to two oracles (see routerOracle).
func FuzzRouterAgainstFloydWarshall(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6))
	f.Add(uint64(2), uint8(9), uint8(40))
	f.Add(uint64(3), uint8(12), uint8(12))
	f.Fuzz(routerOracle)
}

// routerOracle holds the router on one random multigraph to the
// independent all-pairs oracle: distances and reachability match, every
// single-path row is a contiguous src→dst walk of exactly that cost, and
// every ECMP row uses only links on some shortest path, with fractions
// in (0, 1] that leave the source summing to 1. It then toggles links
// and holds BuildMatrixECMP to referenceRoute bit for bit (see
// checkECMPAgainstReference).
func routerOracle(t *testing.T, seed uint64, nodes, links uint8) {
	n := 2 + int(nodes)%11
	r := rng.New(seed)
	g := topology.New()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('A' + i)))
	}
	for i := 0; i < int(links)%64; i++ {
		a, b := topology.NodeID(r.Intn(n)), topology.NodeID(r.Intn(n))
		if a == b {
			continue
		}
		// Weights from a tiny range make equal-cost ties common; a
		// repeated (a, b) draw is a parallel link.
		lid := g.AddLink(a, b, topology.OC12, 1+r.Intn(3))
		g.SetDown(lid, r.Intn(8) == 0)
	}
	tbl := ComputeTable(g)
	want := floydWarshall(g)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			if s == d {
				continue
			}
			pair := []ODPair{{Name: "p", Src: src, Dst: dst}}
			sp, errSP := BuildMatrix(tbl, pair)
			mp, errMP := BuildMatrixECMP(tbl, pair)
			if want[s][d] == math.MaxInt32 {
				if tbl.Reachable(src, dst) || errSP == nil || errMP == nil {
					t.Fatalf("%d->%d: unreachable per Floyd-Warshall, router disagrees", s, d)
				}
				continue
			}
			if errSP != nil || errMP != nil {
				t.Fatalf("%d->%d: %v / %v", s, d, errSP, errMP)
			}
			if c, err := tbl.Cost(src, dst); err != nil || c != want[s][d] {
				t.Fatalf("dist(%d,%d) = %d (%v), Floyd-Warshall %d", s, d, c, err, want[s][d])
			}
			cost, cur := 0, src
			for _, lid := range sp.Rows[0] {
				l := g.Link(lid)
				if l.Src != cur || l.Down {
					t.Fatalf("%d->%d: row %v is not a walk over up links", s, d, sp.Rows[0])
				}
				cost += l.Weight
				cur = l.Dst
			}
			if cur != dst || cost != want[s][d] {
				t.Fatalf("%d->%d: row %v ends at %d with cost %d, want cost %d", s, d, sp.Rows[0], cur, cost, want[s][d])
			}
			out := 0.0
			for i, lid := range mp.Rows[0] {
				l, fr := g.Link(lid), mp.Fracs[0][i]
				if l.Down || want[s][l.Src]+l.Weight+want[l.Dst][d] != want[s][d] {
					t.Fatalf("%d->%d: ECMP link %d is on no shortest path", s, d, lid)
				}
				if !(fr > 0 && fr <= 1) {
					t.Fatalf("%d->%d: fraction of link %d is %v, want in (0, 1]", s, d, lid, fr)
				}
				if l.Src == src {
					out += fr
				}
			}
			if math.Abs(out-1) > 1e-9 {
				t.Fatalf("%d->%d: source out-fractions sum to %v", s, d, out)
			}
		}
	}
	checkECMPAgainstReference(t, r, g, tbl)
}
