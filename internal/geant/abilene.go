package geant

import (
	"fmt"

	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// The paper argues its benefits "are not limited to the specific network
// topology under consideration" (Section V-C, citing the generality of
// inter-PoP traffic structure). BuildAbilene provides a second, very
// different backbone to test that claim: the 11-PoP Abilene/Internet2
// research network (a sparse ring-like continental topology, publicly
// documented), with an analogous measurement task — a customer network
// behind the Seattle PoP sending to every other PoP.

// AbileneDestinations lists the measurement task's destination PoPs in
// descending OD-size order.
var AbileneDestinations = []string{
	"NYC", "CHI", "LA", "DC", "ATL", "DEN", "HOU", "IND", "KC", "SV",
}

// AbileneRates is the customer OD intensity (pkt/s) per destination,
// a descending heavy tail like the GEANT task's.
var AbileneRates = []float64{
	18000, 7500, 4200, 2100, 950, 420, 180, 75, 32, 15,
}

// abileneCircuits is the Abilene backbone (OC-192 trunks, 2004 era).
var abileneCircuits = []duplex{
	{"SEA", "SV", topology.OC192, 12},
	{"SEA", "DEN", topology.OC192, 14},
	{"SV", "LA", topology.OC192, 8},
	{"SV", "DEN", topology.OC192, 11},
	{"LA", "HOU", topology.OC192, 14},
	{"DEN", "KC", topology.OC192, 9},
	{"KC", "IND", topology.OC192, 8},
	{"KC", "HOU", topology.OC192, 10},
	{"HOU", "ATL", topology.OC192, 12},
	{"IND", "CHI", topology.OC192, 6},
	{"IND", "ATL", topology.OC192, 11},
	{"CHI", "NYC", topology.OC192, 10},
	{"ATL", "DC", topology.OC192, 8},
	{"NYC", "DC", topology.OC192, 6},
}

// abileneMass drives the gravity background.
var abileneMass = map[string]float64{
	"NYC": 8, "CHI": 7, "LA": 6, "DC": 5, "ATL": 4.5, "DEN": 3.5,
	"HOU": 3.5, "IND": 3, "KC": 2.5, "SV": 5, "SEA": 4,
}

// BuildAbilene constructs the Abilene scenario: 11 PoPs, 28
// unidirectional links, a customer ("CUST") behind Seattle, and 10
// customer OD pairs.
func BuildAbilene(seed uint64) (*Scenario, error) {
	g := topology.New()
	added := map[string]bool{}
	addNode := func(name string) {
		if !added[name] {
			g.AddNode(name)
			added[name] = true
		}
	}
	addNode("SEA")
	for _, c := range abileneCircuits {
		addNode(c.a)
		addNode(c.b)
	}
	for _, c := range abileneCircuits {
		g.AddDuplex(g.MustNode(c.a), g.MustNode(c.b), c.capacity, c.weight)
	}
	cust := g.AddNode("CUST")
	sea := g.MustNode("SEA")
	access, accessRev := g.AddDuplex(cust, sea, topology.OC48, 5)
	g.MarkAccess(access)
	g.MarkAccess(accessRev)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("geant: abilene: %w", err)
	}

	tbl := routing.ComputeTable(g)
	pairs := make([]routing.ODPair, len(AbileneDestinations))
	for k, dst := range AbileneDestinations {
		pairs[k] = routing.ODPair{Name: "CUST-" + dst, Src: cust, Dst: g.MustNode(dst)}
	}
	matrix, err := routing.BuildMatrix(tbl, pairs)
	if err != nil {
		return nil, fmt.Errorf("geant: abilene: %w", err)
	}

	r := rng.New(seed ^ 0xab11e4e)
	custDemands := &traffic.Matrix{}
	for k, pr := range pairs {
		custDemands.Demands = append(custDemands.Demands, traffic.Demand{Pair: pr, Rate: AbileneRates[k]})
	}
	mass := make(map[topology.NodeID]float64, len(abileneMass))
	for name, m := range abileneMass {
		mass[g.MustNode(name)] = m
	}
	background := traffic.Gravity(g, mass, 300000, 0.25, r)
	demands := background.Merge(custDemands)
	loads, err := traffic.LinkLoads(g, tbl, demands)
	if err != nil {
		return nil, fmt.Errorf("geant: abilene: %w", err)
	}

	var monitorLinks []topology.LinkID
	for _, lid := range matrix.LinkSet() {
		if !g.Link(lid).Access {
			monitorLinks = append(monitorLinks, lid)
		}
	}
	var seaLinks []topology.LinkID
	for _, lid := range g.Out(sea) {
		if !g.Link(lid).Access {
			seaLinks = append(seaLinks, lid)
		}
	}
	xms := make([]float64, len(pairs))
	for k := range xms {
		xms[k] = 300 + 600*r.Float64()
	}
	dists := sizeDists(xms)
	rates := append([]float64(nil), AbileneRates...)
	return &Scenario{
		Graph:        g,
		Table:        tbl,
		Origin:       cust,
		AccessLink:   access,
		Pairs:        pairs,
		Matrix:       matrix,
		Rates:        rates,
		SizeDists:    dists,
		Demands:      demands,
		Loads:        loads,
		MonitorLinks: monitorLinks,
		UKLinks:      seaLinks, // the ingress PoP's links (the restricted baseline)
	}, nil
}
