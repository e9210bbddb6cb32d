// Package geant builds the evaluation scenario of the paper: the GEANT
// European research backbone (as of November 2004) carrying background
// traffic plus the measurement task "estimate the traffic sent by JANET
// (UK research network, AS 786) to each individual GEANT PoP through the
// UK PoP" — 20 OD pairs (paper, Section V).
//
// The real GEANT topology details and the sampled NetFlow feed are not
// publicly available, so this package provides a faithful synthetic
// stand-in (see DESIGN.md for the substitution rationale):
//
//   - 23 PoPs named by the paper's country codes, 36 duplex circuits =
//     72 unidirectional links, with OC-3…OC-48 capacities;
//   - the UK PoP has exactly six intra-GEANT adjacencies (the paper's
//     "UK links only" baseline monitors six links);
//   - IGP weights are chosen so small OD pairs exit through lightly
//     loaded distal links (FR→LU, CZ→SK, IT→IL, SE→PL), the structural
//     property (Section V-C) that gives network-wide placement its edge;
//   - JANET attaches to the UK PoP through an access link that is
//     excluded from the candidate monitor set (CPE routers, Section V-C);
//   - the 20 JANET OD-pair intensities form a heavy-tailed descending
//     sequence from ≈30,900 pkt/s (NL) to 20 pkt/s (LU) summing to the
//     paper's stated 57,933 pkt/s, and a gravity-model background matrix
//     loads the rest of the network.
package geant

import (
	"fmt"

	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// Destinations lists the 20 GEANT PoPs of the JANET measurement task in
// the order of the paper's Table I (descending OD size).
var Destinations = []string{
	"NL", "NY", "DE", "SE", "CH", "FR", "PL", "GR", "ES", "SI",
	"IT", "AT", "CZ", "BE", "PT", "HU", "HR", "IL", "SK", "LU",
}

// PairRates is the packets-per-second intensity of each JANET OD pair,
// aligned with Destinations. The first and last values and the total
// (57,933 pkt/s) are stated in the paper; the interior of the sequence
// is synthesized as a descending heavy tail.
var PairRates = []float64{
	30935, 9800, 5200, 3600, 2400, 1900, 1300, 850, 590, 400,
	280, 195, 140, 100, 72, 55, 40, 31, 25, 20,
}

// TotalJANETRate is the sum of PairRates, matching the paper's footnote
// ("adding up the values in the second column of Table I we obtain
// 57,933 packets per second").
const TotalJANETRate = 57933.0

// Scenario bundles everything the evaluation needs.
type Scenario struct {
	Graph *topology.Graph
	Table *routing.Table
	// Origin is the JANET node; AccessLink is the JANET→UK access link
	// (excluded from the candidate monitor set).
	Origin     topology.NodeID
	AccessLink topology.LinkID
	// Pairs are the 20 JANET OD pairs, Matrix their routing rows.
	Pairs  []routing.ODPair
	Matrix *routing.Matrix
	// Rates[k] is the OD intensity (pkt/s) of pair k; SizeDists[k] its
	// flow-size distribution.
	Rates     []float64
	SizeDists []traffic.SizeDist
	// Demands is the full traffic matrix (background + JANET pairs) and
	// Loads the per-link packet rates it induces.
	Demands *traffic.Matrix
	Loads   []float64
	// MonitorLinks is the candidate monitor set L: every non-access link
	// traversed by at least one pair, in LinkID order.
	MonitorLinks []topology.LinkID
	// UKLinks are the six intra-GEANT links leaving the UK PoP (the
	// paper's restricted baseline).
	UKLinks []topology.LinkID
}

// duplex describes one physical circuit of the synthetic backbone.
type duplex struct {
	a, b     string
	capacity float64
	weight   int
}

// circuits is the synthetic GEANT backbone: 36 duplex circuits over 23
// PoPs. UK has exactly six intra-GEANT adjacencies.
var circuits = []duplex{
	// UK's six GEANT links.
	{"UK", "FR", topology.OC48, 10},
	{"UK", "NL", topology.OC48, 10},
	{"UK", "DE", topology.OC48, 12},
	{"UK", "SE", topology.OC48, 14},
	{"UK", "NY", topology.OC48, 20},
	{"UK", "PT", topology.OC12, 25},
	// Continental core.
	{"FR", "DE", topology.OC48, 10},
	{"FR", "BE", topology.OC12, 7},
	{"FR", "LU", topology.OC3, 12},
	{"FR", "CH", topology.OC48, 10},
	{"FR", "ES", topology.OC12, 12},
	{"DE", "NL", topology.OC48, 8},
	{"DE", "AT", topology.OC48, 10},
	{"DE", "CZ", topology.OC12, 10},
	{"DE", "PL", topology.OC12, 16},
	{"DE", "CH", topology.OC48, 12},
	{"DE", "LU", topology.OC3, 15},
	{"DE", "SE", topology.OC12, 16},
	{"NL", "BE", topology.OC12, 8},
	{"NL", "NY", topology.OC48, 22},
	{"NL", "IE", topology.OC3, 20},
	{"SE", "PL", topology.OC3, 12},
	{"CH", "IT", topology.OC48, 8},
	{"IT", "AT", topology.OC12, 10},
	{"IT", "GR", topology.OC12, 18},
	{"IT", "IL", topology.OC3, 25},
	{"IT", "ES", topology.OC12, 20},
	{"AT", "HU", topology.OC12, 8},
	{"AT", "SI", topology.OC3, 8},
	{"AT", "SK", topology.OC3, 12},
	{"AT", "CZ", topology.OC12, 10},
	{"CZ", "SK", topology.OC3, 8},
	{"HU", "HR", topology.OC3, 10},
	{"SI", "HR", topology.OC3, 8},
	{"ES", "PT", topology.OC12, 10},
	{"GR", "CY", topology.OC3, 15},
}

// popMass drives the gravity model for background traffic: rough
// relative PoP sizes of the 2004 GEANT network.
var popMass = map[string]float64{
	"DE": 10, "UK": 9, "FR": 8, "NL": 7, "IT": 6, "NY": 5,
	"ES": 4, "SE": 4, "CH": 4, "AT": 3.5, "BE": 3, "PL": 3,
	"CZ": 2.5, "PT": 2, "GR": 2, "HU": 2, "IE": 1.5,
	"SI": 1, "HR": 1, "SK": 0.8, "IL": 0.8, "LU": 0.6, "CY": 0.5,
}

// BackgroundRate is the total background traffic (pkt/s) offered by the
// gravity model, calibrated so the UK core links are heavily loaded
// (tens of thousands of pkt/s) while stub circuits such as FR→LU and
// CZ→SK stay lightly loaded, reproducing the load structure of the
// paper's Table I.
const BackgroundRate = 500000.0

// Build constructs the scenario. seed drives the gravity-model jitter
// and the per-pair flow size parameters; the topology and JANET
// intensities are fixed.
func Build(seed uint64) (*Scenario, error) {
	g := topology.New()
	// Deterministic node order: UK first, then the circuit list order.
	added := map[string]bool{}
	addNode := func(name string) {
		if !added[name] {
			g.AddNode(name)
			added[name] = true
		}
	}
	addNode("UK")
	for _, c := range circuits {
		addNode(c.a)
		addNode(c.b)
	}
	for _, c := range circuits {
		g.AddDuplex(g.MustNode(c.a), g.MustNode(c.b), c.capacity, c.weight)
	}
	// JANET attaches through the UK PoP; the access circuit cannot be
	// monitored by the GEANT operator.
	janet := g.AddNode("JANET")
	uk := g.MustNode("UK")
	access, accessRev := g.AddDuplex(janet, uk, topology.OC48, 5)
	g.MarkAccess(access)
	g.MarkAccess(accessRev)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("geant: %w", err)
	}

	tbl := routing.ComputeTable(g)

	// The 20 JANET OD pairs of the measurement task.
	pairs := make([]routing.ODPair, len(Destinations))
	for k, dst := range Destinations {
		pairs[k] = routing.ODPair{
			Name: "JANET-" + dst,
			Src:  janet,
			Dst:  g.MustNode(dst),
		}
	}
	matrix, err := routing.BuildMatrix(tbl, pairs)
	if err != nil {
		return nil, fmt.Errorf("geant: %w", err)
	}

	// Traffic: JANET demands plus gravity background.
	r := rng.New(seed)
	janetDemands := &traffic.Matrix{}
	for k, pr := range pairs {
		janetDemands.Demands = append(janetDemands.Demands, traffic.Demand{Pair: pr, Rate: PairRates[k]})
	}
	mass := make(map[topology.NodeID]float64, len(popMass))
	for name, m := range popMass {
		mass[g.MustNode(name)] = m
	}
	background := traffic.Gravity(g, mass, BackgroundRate, 0.25, r)
	demands := background.Merge(janetDemands)
	loads, err := traffic.LinkLoads(g, tbl, demands)
	if err != nil {
		return nil, fmt.Errorf("geant: %w", err)
	}

	// Candidate monitor set: links traversed by the pairs, minus access
	// links (Section V-C).
	var monitorLinks []topology.LinkID
	for _, lid := range matrix.LinkSet() {
		if !g.Link(lid).Access {
			monitorLinks = append(monitorLinks, lid)
		}
	}

	// The six UK links of the restricted baseline.
	var ukLinks []topology.LinkID
	for _, lid := range g.Out(uk) {
		if !g.Link(lid).Access {
			ukLinks = append(ukLinks, lid)
		}
	}

	// Per-pair flow sizes: bounded Pareto with tail 2.5 and scale drawn
	// so mean sizes span roughly 500–1500 packets, i.e. E[1/S] spans the
	// ≈0.0008…0.0024 range of the paper's Figure 1.
	xms := make([]float64, len(pairs))
	for k := range xms {
		xms[k] = 300 + 600*r.Float64() // mean = 2.5·xm/1.5 ≈ 500…1500
	}
	dists := sizeDists(xms)

	return &Scenario{
		Graph:        g,
		Table:        tbl,
		Origin:       janet,
		AccessLink:   access,
		Pairs:        pairs,
		Matrix:       matrix,
		Rates:        append([]float64(nil), PairRates...),
		SizeDists:    dists,
		Demands:      demands,
		Loads:        loads,
		MonitorLinks: monitorLinks,
		UKLinks:      ukLinks,
	}, nil
}

// sizeDists builds the per-pair flow-size distributions, bounded Pareto
// with tail 2.5 and scale xms[k], in one batch.
func sizeDists(xms []float64) []traffic.SizeDist {
	dists := make([]traffic.SizeDist, len(xms))
	for k, p := range traffic.NewParetoSizes(xms, 2.5, 2_000_000) {
		dists[k] = p
	}
	return dists
}

// MustBuild is Build that panics on error (topology and demands are
// static, so failure indicates a programming error).
func MustBuild(seed uint64) *Scenario {
	s, err := Build(seed)
	if err != nil {
		panic(err)
	}
	return s
}

// UtilityParams returns c_k = E[1/S_k] per pair for a measurement
// interval of the given length, the parameter of each pair's SRE
// utility. S_k is the OD pair's size in packets over the interval
// (paper, Section IV-C: "Let S_k be the actual size of the kth OD pair
// ... in a given time interval"); with the scenario's constant-rate
// demands the interval size concentrates at rate·interval, so
// E[1/S_k] = 1/S_k. This is what makes the optimum fair: JANET-LU
// (6,000 packets per 5 minutes) needs an effective rate near 1% for a
// useful estimate, while JANET-NL (≈9.3M packets) is accurately
// estimated from a minuscule rate.
func (s *Scenario) UtilityParams(intervalSeconds float64) []float64 {
	out := make([]float64, len(s.Rates))
	for k, size := range s.PairSizes(intervalSeconds) {
		out[k] = 1 / float64(size)
	}
	return out
}

// PairSizes returns the true OD sizes in packets for a measurement
// interval of the given length in seconds.
func (s *Scenario) PairSizes(intervalSeconds float64) []int64 {
	out := make([]int64, len(s.Rates))
	for k, rate := range s.Rates {
		out[k] = int64(rate*intervalSeconds + 0.5)
	}
	return out
}
