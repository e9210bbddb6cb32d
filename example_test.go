package netsamp_test

import (
	"fmt"
	"sort"

	"netsamp"
)

// ExampleSolve states and solves a two-link sampling problem directly.
func ExampleSolve() {
	u, _ := netsamp.NewSRE(1.0 / 6000) // an OD pair of 6000 packets per interval
	prob := &netsamp.Problem{
		Loads:  []float64{40000, 2000}, // pkt/s on the two candidate links
		Budget: netsamp.BudgetPerInterval(30000, 300),
		// Pair k crosses Links[Start[k]:Start[k+1]]: the small OD the
		// light link 1, the big OD the heavy link 0.
		Start:     []int32{0, 1, 2},
		Links:     []int32{1, 0},
		Utilities: []netsamp.Utility{u, mustSRE(1.0 / 9000000)},
	}
	sol, err := netsamp.Solve(prob, netsamp.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("converged=%v monitors=%d\n", sol.Stats.Converged, len(sol.ActiveMonitors()))
	fmt.Printf("small OD sampled at %.4f on the light link\n", sol.Rates[1])
	// Output:
	// converged=true monitors=2
	// small OD sampled at 0.0448 on the light link
}

// ExampleNewSRE shows the utility the optimizer maximizes.
func ExampleNewSRE() {
	u, _ := netsamp.NewSRE(1.0 / 6000)
	fmt.Printf("M(0)      = %.3f\n", u.Value(0))
	fmt.Printf("M(1%%)     = %.3f\n", u.Value(0.01))
	fmt.Printf("M(100%%)   = %.3f\n", u.Value(1))
	// Output:
	// M(0)      = 0.000
	// M(1%)     = 0.983
	// M(100%)   = 1.000
}

// ExampleBuildProblem walks the topology-to-plan bridge on a tiny net.
func ExampleBuildProblem() {
	g := netsamp.NewGraph()
	a, b := g.AddNode("A"), g.AddNode("B")
	ab, _ := g.AddDuplex(a, b, netsamp.OC48, 10)
	tbl := netsamp.ComputeRouting(g)
	pairs := []netsamp.ODPair{{Name: "A->B", Src: a, Dst: b}}
	m, _ := netsamp.BuildRoutingMatrix(tbl, pairs)
	demands := &netsamp.TrafficMatrix{Demands: []netsamp.Demand{{Pair: pairs[0], Rate: 1000}}}
	loads, _ := netsamp.LinkLoads(g, tbl, demands)
	prob, _ := netsamp.BuildProblem(netsamp.PlanInput{
		Matrix:       m,
		Loads:        loads,
		Candidates:   []netsamp.LinkID{ab},
		InvMeanSizes: []float64{1.0 / (1000 * 300)},
		Budget:       netsamp.BudgetPerInterval(3000, 300),
	})
	sol, _ := netsamp.Solve(prob, netsamp.Options{})
	rates := netsamp.RatesByLink(sol, []netsamp.LinkID{ab})
	var links []netsamp.LinkID
	for lid := range rates {
		links = append(links, lid)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, lid := range links {
		fmt.Printf("%s p=%.3f\n", g.LinkName(lid), rates[lid])
	}
	// Output:
	// A->B p=0.010
}

func mustSRE(c float64) *netsamp.SRE {
	u, err := netsamp.NewSRE(c)
	if err != nil {
		panic(err)
	}
	return u
}
