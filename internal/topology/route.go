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

	// The tight-DAG index of one tree, built by the first ECMP Route over
	// it and dropped by SPF: every pair routed from that tree reads it
	// instead of re-deriving the tree's tight edges. order lists the
	// reachable nodes in ascending (Dist, NodeID) order — a topological
	// order of the tight DAG, since tight links go strictly downhill in
	// Dist — and rank is each node's position in it. Node v's tight
	// in-links start at the nodes inSrc[inStart[v]:inStart[v+1]]; node
	// u's tight out-links are outLink[outStart[u]:outStart[u+1]], in
	// g.Out order, and outDst holds their heads.
	indexed  *Tree
	order    []NodeID
	rank     []int32
	inStart  []int32
	inSrc    []NodeID
	outStart []int32
	outLink  []LinkID
	outDst   []NodeID

	// Per-route scratch; the node stamp avoids O(V) clears.
	epoch     int
	nodeStamp []int
	mass      []float64
	dagRanks  []int32
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
	r.indexed = nil
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
//
// The ECMP branch reads the tree's tight-DAG index (see Router), built
// from t and the links' Down flags on the first ECMP call for t; t and
// the flags must not change until the next SPF.
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
			cur = g.links[lid].Src
		}
		slices.Reverse(r.links)
		return r.links, nil, nil
	}

	if r.indexed != t {
		r.index(t)
	}
	if n, nl := g.NumNodes(), g.NumLinks(); len(r.nodeStamp) != n || len(r.linkFrac) != nl {
		r.nodeStamp, r.mass, r.dagRanks = make([]int, n), make([]float64, n), make([]int32, 0, n)
		r.linkFrac, r.links, r.fracs = make([]float64, nl), make([]LinkID, 0, nl), make([]float64, 0, nl)
	}
	r.epoch++
	ep := r.epoch

	// Backward reachability from dst over tight in-links: a node u with
	// a tight chain to dst lies on a shortest src→dst path (dist[u] is
	// minimal and the chain costs dist[dst] − dist[u]).
	r.dagRanks = append(r.dagRanks[:0], r.rank[dst])
	r.nodeStamp[dst] = ep
	r.mass[dst] = 0
	for head := 0; head < len(r.dagRanks); head++ {
		v := r.order[r.dagRanks[head]]
		for _, u := range r.inSrc[r.inStart[v]:r.inStart[v+1]] {
			if r.nodeStamp[u] != ep {
				r.nodeStamp[u] = ep
				r.mass[u] = 0
				r.dagRanks = append(r.dagRanks, r.rank[u])
			}
		}
	}
	if r.nodeStamp[src] != ep {
		return nil, nil, fmt.Errorf("topology: no tight path from %d to %d: links went down after SPF", src, dst)
	}

	// Ascending rank is the DAG's topological order. Each node splits its
	// mass over its tight out-links into the stamped set; a link has one
	// tail, so it is written once.
	slices.Sort(r.dagRanks)
	r.mass[src] = 1
	for _, rk := range r.dagRanks {
		u := r.order[rk]
		if u == dst || r.mass[u] == 0 {
			continue
		}
		lo, hi := r.outStart[u], r.outStart[u+1]
		deg := 0
		for _, v := range r.outDst[lo:hi] {
			if r.nodeStamp[v] == ep {
				deg++
			}
		}
		share := r.mass[u] / float64(deg)
		for i := lo; i < hi; i++ {
			v := r.outDst[i]
			if r.nodeStamp[v] != ep {
				continue
			}
			lid := r.outLink[i]
			r.linkFrac[lid] = share
			r.links = append(r.links, lid)
			r.mass[v] += share
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

// index builds t's tight-DAG index (see Router). A link is tight when it
// is up, its tail is reachable and it lies on a shortest path:
// Dist[tail] + Weight == Dist[head].
func (r *Router) index(t *Tree) {
	g := r.g
	n, nl := g.NumNodes(), g.NumLinks()
	if len(r.rank) != n || cap(r.inSrc) < nl {
		r.order, r.rank = make([]NodeID, 0, n), make([]int32, n)
		r.inStart, r.outStart = make([]int32, n+1), make([]int32, n+1)
		r.inSrc, r.outLink, r.outDst = make([]NodeID, 0, nl), make([]LinkID, 0, nl), make([]NodeID, 0, nl)
	}
	r.order = r.order[:0]
	for v, d := range t.Dist {
		if d != Unreachable {
			r.order = append(r.order, NodeID(v))
		}
	}
	slices.SortFunc(r.order, func(a, b NodeID) int {
		return cmp.Or(cmp.Compare(t.Dist[a], t.Dist[b]), cmp.Compare(a, b))
	})
	for i, v := range r.order {
		r.rank[v] = int32(i)
	}

	tight := func(l *Link) bool {
		return !l.Down && t.Dist[l.Src] != Unreachable && t.Dist[l.Src]+l.Weight == t.Dist[l.Dst]
	}
	r.inSrc, r.outLink, r.outDst = r.inSrc[:0], r.outLink[:0], r.outDst[:0]
	for v := range n {
		r.inStart[v] = int32(len(r.inSrc))
		r.outStart[v] = int32(len(r.outLink))
		if t.Dist[v] == Unreachable {
			continue
		}
		for _, lid := range g.in[v] {
			if l := &g.links[lid]; tight(l) {
				r.inSrc = append(r.inSrc, l.Src)
			}
		}
		for _, lid := range g.out[v] {
			if l := &g.links[lid]; tight(l) {
				r.outLink = append(r.outLink, lid)
				r.outDst = append(r.outDst, l.Dst)
			}
		}
	}
	r.inStart[n] = int32(len(r.inSrc))
	r.outStart[n] = int32(len(r.outLink))
	r.indexed = t
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
