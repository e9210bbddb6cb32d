package routing

import "netsamp/internal/topology"

// ECMP support: real backbones split traffic across equal-cost paths.
// Under flow-hash splitting, a packet of OD pair k crosses link i with
// probability f_ki ∈ [0, 1] — the fraction of pair k's traffic carried
// by link i. The optimization framework extends naturally: the routing
// matrix entry r_ki becomes fractional and the effective sampling rate
// (approximation (7)) becomes ρ_k = Σ_i f_ki·p_i, the probability that
// a random packet of the pair is sampled.
//
// Fractions are computed by topology.Router's equal splitting over the
// shortest-path DAG: every node forwards its share of the pair's traffic
// uniformly across its equal-cost next hops toward the destination (the
// standard per-flow ECMP model with balanced hashing).

// Hop is one link of an ECMP route with the traffic fraction it carries.
type Hop struct {
	Link topology.LinkID
	Frac float64
}

// Fractions returns the per-link traffic fractions of the (src, dst)
// flow under equal-cost multipath splitting. The returned hops are in
// ascending LinkID order. It returns an error if dst is unreachable.
func (t *Table) Fractions(src, dst topology.NodeID) ([]Hop, error) {
	links, fracs, err := t.route(topology.NewRouter(t.g), src, dst, true)
	if err != nil || len(links) == 0 {
		return nil, err
	}
	hops := make([]Hop, len(links))
	for i, lid := range links {
		hops[i] = Hop{Link: lid, Frac: fracs[i]}
	}
	return hops, nil
}

// BuildMatrixECMP routes every OD pair over the full equal-cost DAG and
// assembles a fractional routing matrix: Rows[k] lists the links pair k
// can cross, Fracs[k] the traffic fraction on each.
func BuildMatrixECMP(t *Table, pairs []ODPair) (*Matrix, error) { return buildMatrix(t, pairs, true) }

// Frac returns the traffic fraction of OD pair k on link id (1 for a
// traversed link of a single-path matrix, 0 if not traversed).
func (m *Matrix) Frac(k int, id topology.LinkID) float64 {
	for i, l := range m.Rows[k] {
		if l == id {
			if m.Fracs == nil || m.Fracs[k] == nil {
				return 1
			}
			return m.Fracs[k][i]
		}
	}
	return 0
}
