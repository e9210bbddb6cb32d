// Anomaly watch: why monitor placement must be re-optimized.
//
// The paper's motivation (Section I): traffic shifts and re-routing
// events quickly make a static monitor placement sub-optimal, which is
// why the problem should be reformulated as activating router-embedded
// monitors on demand.
//
// This example demonstrates the workflow on the GEANT scenario:
//
//  1. Solve the JANET task under normal conditions.
//  2. An anomaly appears: the JANET→LU pair collapses from 20 pkt/s to
//     2 pkt/s — a stealthy, low-rate flow the operator wants to keep
//     tracking (early anomaly detection) — while a failure of the FR–CH
//     circuit re-routes the Swiss/Italian traffic.
//  3. Re-route, recompute loads, re-optimize, and diff the two plans.
//
// Run with:
//
//	go run ./examples/anomaly-watch
package main

import (
	"fmt"
	"log"
	"sort"

	"netsamp"
	"netsamp/internal/eval"
)

func solve(s *netsamp.GEANTScenario, loads []float64, rates []float64) (map[netsamp.LinkID]float64, *netsamp.Solution) {
	inv := make([]float64, len(rates))
	for k, r := range rates {
		inv[k] = 1 / (r * eval.Interval)
	}
	prob, err := netsamp.BuildProblem(netsamp.PlanInput{
		Matrix:       s.Matrix,
		Loads:        loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: inv,
		Budget:       netsamp.BudgetPerInterval(100000, eval.Interval),
	})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := netsamp.Solve(prob, netsamp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return netsamp.RatesByLink(sol, s.MonitorLinks), sol
}

func printPlan(s *netsamp.GEANTScenario, rates map[netsamp.LinkID]float64) {
	var links []netsamp.LinkID
	for lid := range rates {
		links = append(links, lid)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, lid := range links {
		fmt.Printf("  %-8s p=%.6f\n", s.Graph.LinkName(lid), rates[lid])
	}
}

func main() {
	s, err := netsamp.BuildGEANT(1)
	if err != nil {
		log.Fatal(err)
	}

	before, solBefore := solve(s, s.Loads, s.Rates)
	fmt.Println("Plan under normal conditions:")
	printPlan(s, before)
	fmt.Printf("  worst-pair utility: %.4f\n\n", minOf(solBefore.Utilities))

	// --- The anomaly ---------------------------------------------------
	// JANET→LU collapses from 20 pkt/s to 2 pkt/s, and the FR–CH circuit
	// fails, re-routing the Swiss/Italian traffic through DE.
	rates := append([]float64(nil), s.Rates...)
	luIdx := len(rates) - 1 // JANET-LU is the last pair (Table I order)
	rates[luIdx] = 2

	frch, ok := s.Graph.FindLink(s.Graph.MustNode("FR"), s.Graph.MustNode("CH"))
	if !ok {
		log.Fatal("FR->CH missing")
	}
	chfr, _ := s.Graph.FindLink(s.Graph.MustNode("CH"), s.Graph.MustNode("FR"))
	s.Graph.SetDown(frch, true)
	s.Graph.SetDown(chfr, true)

	// Re-route and rebuild the routing matrix and loads.
	tbl := netsamp.ComputeRouting(s.Graph)
	matrix, err := netsamp.BuildRoutingMatrix(tbl, s.Pairs)
	if err != nil {
		log.Fatal(err)
	}
	demands := &netsamp.TrafficMatrix{}
	demands.Demands = append(demands.Demands, s.Demands.Demands...)
	for i := range demands.Demands {
		if demands.Demands[i].Pair.Name == "JANET-LU" {
			demands.Demands[i].Rate = 2
		}
	}
	loads, err := netsamp.LinkLoads(s.Graph, tbl, demands)
	if err != nil {
		log.Fatal(err)
	}
	// The candidate set changes with the routing: recompute it.
	after := *s
	after.Matrix = matrix
	after.MonitorLinks = nil
	for _, lid := range matrix.LinkSet() {
		if !s.Graph.Link(lid).Access {
			after.MonitorLinks = append(after.MonitorLinks, lid)
		}
	}
	after.Loads = loads

	planAfter, solAfter := solve(&after, loads, rates)
	fmt.Println("Plan after the anomaly + FR-CH failure (re-optimized):")
	printPlan(&after, planAfter)
	fmt.Printf("  worst-pair utility: %.4f\n\n", minOf(solAfter.Utilities))

	// Diff the monitor sets.
	fmt.Println("Monitor set changes:")
	for lid := range planAfter {
		if _, was := before[lid]; !was {
			fmt.Printf("  + activate %s\n", s.Graph.LinkName(lid))
		}
	}
	for lid := range before {
		if _, still := planAfter[lid]; !still {
			fmt.Printf("  - deactivate %s\n", s.Graph.LinkName(lid))
		}
	}

	// What if the operator had kept the old static plan? Evaluate the old
	// rates under the new routing/loads within the same budget envelope.
	oldRho := netsamp.EffectiveRates(matrix, before, nil)
	worst := 1.0
	for k, rho := range oldRho {
		u, err := netsamp.NewSRE(1 / (rates[k] * eval.Interval))
		if err != nil {
			log.Fatal(err)
		}
		if v := u.Value(rho); v < worst {
			worst = v
		}
	}
	fmt.Printf("\nStatic (stale) plan under the new conditions: worst-pair utility %.4f\n", worst)
	fmt.Printf("Re-optimized plan:                              worst-pair utility %.4f\n", minOf(solAfter.Utilities))
	fmt.Println("\nA static placement cannot follow traffic and routing dynamics —")
	fmt.Println("the paper's argument for optimizing activation network-wide.")
}

func minOf(u []float64) float64 {
	m := u[0]
	for _, v := range u {
		if v < m {
			m = v
		}
	}
	return m
}
