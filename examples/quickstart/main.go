// Quickstart: the complete netsamp workflow on a six-PoP toy backbone.
//
// We build a topology, route two OD pairs of interest over it, load the
// network with background traffic, and ask the optimizer which monitors
// to activate — and at what sampling rate — to estimate both OD pair
// sizes accurately within a budget of 5,000 sampled packets per
// 5-minute interval.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"netsamp"
)

func main() {
	// A small backbone: two core PoPs (A, B), two regional PoPs (C, D)
	// and two stubs (E, F).
	//
	//      A ===== B
	//      |  \    |
	//      C   \   D
	//      |    \  |
	//      E      F
	g := netsamp.NewGraph()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	d := g.AddNode("D")
	e := g.AddNode("E")
	f := g.AddNode("F")
	ab, _ := g.AddDuplex(a, b, netsamp.OC48, 10)
	ac, _ := g.AddDuplex(a, c, netsamp.OC12, 10)
	_, _ = g.AddDuplex(a, f, netsamp.OC12, 45) // backup path, unused by SPF
	bd, _ := g.AddDuplex(b, d, netsamp.OC12, 10)
	ce, _ := g.AddDuplex(c, e, netsamp.OC3, 10)
	df, _ := g.AddDuplex(d, f, netsamp.OC3, 10)
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}

	// Route everything with an ISIS-like SPF.
	tbl := netsamp.ComputeRouting(g)

	// The measurement task: estimate the A→E and A→F traffic.
	pairs := []netsamp.ODPair{
		{Name: "A->E", Src: a, Dst: e},
		{Name: "A->F", Src: a, Dst: f},
	}
	matrix, err := netsamp.BuildRoutingMatrix(tbl, pairs)
	if err != nil {
		log.Fatal(err)
	}

	// Offered traffic: the two pairs of interest plus cross traffic that
	// loads the core far more than the stubs.
	demands := &netsamp.TrafficMatrix{Demands: []netsamp.Demand{
		{Pair: pairs[0], Rate: 900}, // A→E, 900 pkt/s
		{Pair: pairs[1], Rate: 150}, // A→F, 150 pkt/s
		{Pair: netsamp.ODPair{Name: "A->B", Src: a, Dst: b}, Rate: 30000},
		{Pair: netsamp.ODPair{Name: "B->A", Src: b, Dst: a}, Rate: 28000},
		{Pair: netsamp.ODPair{Name: "A->C", Src: a, Dst: c}, Rate: 7000},
		{Pair: netsamp.ODPair{Name: "B->D", Src: b, Dst: d}, Rate: 5000},
	}}
	loads, err := netsamp.LinkLoads(g, tbl, demands)
	if err != nil {
		log.Fatal(err)
	}

	// Candidate monitors: every link the pairs traverse could host one.
	candidates := []netsamp.LinkID{ab, ac, bd, ce, df}

	// Utilities are parameterized by E[1/S_k], the inverse OD size per
	// 5-minute measurement interval.
	const interval = 300.0
	inv := []float64{
		1 / (900 * interval),
		1 / (150 * interval),
	}

	const theta = 5000 // sampled packets per interval
	prob, err := netsamp.BuildProblem(netsamp.PlanInput{
		Matrix:       matrix,
		Loads:        loads,
		Candidates:   candidates,
		InvMeanSizes: inv,
		Budget:       netsamp.BudgetPerInterval(theta, interval),
	})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := netsamp.Solve(prob, netsamp.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Optimal sampling plan (θ = %d packets / %1.0f s, converged=%v, %d iterations)\n\n",
		theta, interval, sol.Stats.Converged, sol.Stats.Iterations)
	fmt.Printf("%-8s %12s %12s %14s\n", "link", "rate p_i", "load pkt/s", "sampled pkt/s")
	rates := netsamp.RatesByLink(sol, candidates)
	for _, lid := range candidates {
		p := rates[lid]
		status := fmt.Sprintf("%12.6f %12.0f %14.2f", p, loads[lid], p*loads[lid])
		if p == 0 {
			status = fmt.Sprintf("%12s %12.0f %14s", "off", loads[lid], "-")
		}
		fmt.Printf("%-8s %s\n", g.LinkName(lid), status)
	}
	fmt.Printf("\n%-8s %14s %10s\n", "OD pair", "effective ρ", "utility")
	for k := range pairs {
		fmt.Printf("%-8s %14.6f %10.4f\n", pairs[k].Name, sol.Rho[k], sol.Utilities[k])
	}
	fmt.Println("\nNote how the optimizer avoids the heavily loaded core link A->B")
	fmt.Println("and samples the lightly loaded stub links C->E and D->F instead:")
	fmt.Println("the same packets can be seen where sampling them is cheap.")
}
