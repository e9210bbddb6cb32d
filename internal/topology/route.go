package topology

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// The router: the one shortest-path computation, path walk and
// equal-cost splitter in the tree. internal/routing's all-pairs Table
// keeps one Tree per node and the generator keeps one Tree per distinct
// source of its sorted pair sample; both turn trees into routing-matrix
// rows through Router.Route, so a row carries the same links and the
// same fraction bits whichever side built it.
//
// Ties between equal-cost paths are broken deterministically: a node's
// predecessor is the tight in-link with the smaller source NodeID, then
// the smaller LinkID, so a topology always yields the same rows.

// Unreachable is the Tree.Dist of a node the source cannot reach.
const Unreachable = math.MaxInt32

// Tree is the shortest-path tree rooted at one source: Dist[v] is the
// IGP cost Src→v and Prev[v] the last link of the chosen path (-1 at Src
// and at unreachable nodes).
type Tree struct {
	Src  NodeID
	Dist []int
	Prev []LinkID
}

// NodeRangeError reports a NodeID that names no node of the routed graph.
type NodeRangeError struct {
	ID    NodeID
	Nodes int
}

func (e *NodeRangeError) Error() string {
	return fmt.Sprintf("topology: node %d out of range [0,%d)", e.ID, e.Nodes)
}

// Router carries the scratch of SPF and Route, reused across calls and
// sized on first use; it is not safe for concurrent use.
type Router struct {
	g    *Graph
	done []bool
	heap []heapItem

	// Per-route equal-cost-DAG scratch; stamp arrays avoid O(V+E) clears.
	epoch     int
	nodeStamp []int
	mass      []float64
	dagNodes  []NodeID
	linkStamp []int
	linkFrac  []float64
	links     []LinkID
	fracs     []float64
}

type heapItem struct {
	node NodeID
	dist int
}

// NewRouter returns a router over g. Down links are ignored; access links
// are routed over normally (traffic must ingress and egress through
// them).
func NewRouter(g *Graph) *Router { return &Router{g: g} }

// SPF fills t with the shortest-path tree from src (Dijkstra).
func (r *Router) SPF(src NodeID, t *Tree) {
	g := r.g
	n := g.NumNodes()
	if len(t.Dist) != n {
		t.Dist, t.Prev = make([]int, n), make([]LinkID, n)
	}
	if len(r.done) != n {
		r.done = make([]bool, n)
	}
	t.Src = src
	for i := range t.Dist {
		t.Dist[i] = Unreachable
		t.Prev[i] = -1
		r.done[i] = false
	}
	t.Dist[src] = 0
	r.heap = append(r.heap[:0], heapItem{node: src})
	for len(r.heap) > 0 {
		it := r.heapPop()
		u := it.node
		if r.done[u] || it.dist > t.Dist[u] {
			continue
		}
		r.done[u] = true
		for _, lid := range g.Out(u) {
			l := g.Link(lid)
			if l.Down {
				continue
			}
			nd := t.Dist[u] + l.Weight
			v := l.Dst
			if nd < t.Dist[v] {
				t.Dist[v] = nd
				t.Prev[v] = lid
				r.heapPush(heapItem{node: v, dist: nd})
			} else if nd == t.Dist[v] && t.Prev[v] >= 0 {
				// Tie-break: the smaller predecessor node, then the
				// smaller link.
				cur := g.Link(t.Prev[v])
				if u < cur.Src || (u == cur.Src && lid < t.Prev[v]) {
					t.Prev[v] = lid
				}
			}
		}
	}
}

func (r *Router) heapPush(it heapItem) {
	r.heap = append(r.heap, it)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if r.heap[parent].dist <= r.heap[i].dist {
			break
		}
		r.heap[parent], r.heap[i] = r.heap[i], r.heap[parent]
		i = parent
	}
}

func (r *Router) heapPop() heapItem {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && r.heap[child+1].dist < r.heap[child].dist {
			child++
		}
		if r.heap[i].dist <= r.heap[child].dist {
			break
		}
		r.heap[i], r.heap[child] = r.heap[child], r.heap[i]
		i = child
	}
	return top
}

// Route returns the links that traffic from t.Src to dst crosses. Single
// path (ecmp false): the predecessor chain in src→dst order, fracs nil.
// ECMP: every link on some shortest path, in ascending LinkID order, with
// the traffic fraction each carries when every node splits its share
// equally over its tight out-links (per-flow ECMP with balanced hashing);
// fractions lie in (0, 1]. The slices are scratch, valid until the next
// call. dst == t.Src yields an empty route; t must come from SPF over
// this router's graph and dst must be one of its nodes.
func (r *Router) Route(t *Tree, dst NodeID, ecmp bool) (links []LinkID, fracs []float64, err error) {
	src := t.Src
	if t.Dist[dst] == Unreachable {
		return nil, nil, fmt.Errorf("topology: node %d unreachable from %d", dst, src)
	}
	g := r.g
	r.links = r.links[:0]
	if !ecmp {
		for cur := dst; cur != src; {
			lid := t.Prev[cur]
			r.links = append(r.links, lid)
			cur = g.Link(lid).Src
		}
		slices.Reverse(r.links)
		return r.links, nil, nil
	}

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
			if t.Dist[u] == Unreachable || t.Dist[u]+l.Weight != t.Dist[v] {
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
	slices.SortFunc(r.dagNodes, func(a, b NodeID) int {
		return cmp.Or(cmp.Compare(t.Dist[a], t.Dist[b]), cmp.Compare(a, b))
	})

	r.mass[src] = 1
	for _, u := range r.dagNodes {
		if u == dst || r.mass[u] == 0 {
			continue
		}
		tight := func(l Link) bool {
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

// routeCSR fills inst.Start/Links/Fracs for the sampled pairs. PairSrc
// is ascending (samplePairIndices sorts the global indices), so pairs
// group by source and each distinct source costs one SPF: the generator
// cannot afford an all-pairs table, nor one []LinkID per pair, at 10⁶
// pairs.
func (inst *ScaleInstance) routeCSR() error {
	nPairs := len(inst.PairSrc)
	r := NewRouter(inst.Graph)
	tree := Tree{Src: -1}
	inst.Start = make([]int32, nPairs+1)
	// Hierarchical shortest paths run edge→agg→core→agg→edge: ~6 hops
	// typical, a little more for ECMP DAGs.
	est := 8 * nPairs
	inst.Links = make([]int32, 0, est)
	if inst.Config.ECMP {
		inst.Fracs = make([]float64, 0, est)
	}
	for k, src := range inst.PairSrc {
		if src != tree.Src {
			r.SPF(src, &tree)
		}
		links, fracs, err := r.Route(&tree, inst.PairDst[k], inst.Config.ECMP)
		if err != nil {
			return err
		}
		for _, lid := range links {
			inst.Links = append(inst.Links, int32(lid))
		}
		inst.Fracs = append(inst.Fracs, fracs...)
		inst.Start[k+1] = int32(len(inst.Links))
	}
	return nil
}
