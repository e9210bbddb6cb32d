// Controller loop: operating the optimizer continuously.
//
// Re-optimizing every five minutes is what the paper argues for, but an
// operator also cares about configuration churn: activating and
// deactivating monitors on hundreds of routers every interval is
// operational noise. This example runs the monitoring controller
// (internal/control) over a simulated day segment on the GEANT scenario:
// loads follow a diurnal cycle with noise, and midway the FR-CH circuit
// fails. The controller smooths loads (EWMA) and applies activation
// hysteresis: rates are re-tuned every interval, but the monitor set
// only changes when it is genuinely worth it.
//
// Run with:
//
//	go run ./examples/controller-loop
package main

import (
	"context"
	"fmt"
	"log"

	"netsamp"
	"netsamp/internal/rng"
)

func main() {
	s, err := netsamp.BuildGEANT(1)
	if err != nil {
		log.Fatal(err)
	}
	inv := s.UtilityParams(300)
	ctl, err := netsamp.NewController(netsamp.ControllerOptions{
		Budget:      netsamp.BudgetPerInterval(100000, 300),
		SmoothAlpha: 0.4,  // EWMA over ~2.5 intervals
		SwitchGain:  0.01, // change the set only for ≥1% objective gain
	})
	if err != nil {
		log.Fatal(err)
	}

	profile := netsamp.Diurnal{Period: 16, Trough: 0.6, Peak: 1.15, Noise: 0.08}
	r := rng.New(33)
	frch, _ := s.Graph.FindLink(s.Graph.MustNode("FR"), s.Graph.MustNode("CH"))
	chfr, _ := s.Graph.FindLink(s.Graph.MustNode("CH"), s.Graph.MustNode("FR"))

	fmt.Printf("%8s %9s %8s %12s %7s %s\n", "interval", "objective", "monitors", "set changed", "gain", "event")
	for t := 0; t < 16; t++ {
		event := ""
		if t == 8 {
			s.Graph.SetDown(frch, true)
			s.Graph.SetDown(chfr, true)
			event = "FR-CH fails"
		}
		tbl := netsamp.ComputeRouting(s.Graph)
		matrix, err := netsamp.BuildRoutingMatrix(tbl, s.Pairs)
		if err != nil {
			log.Fatal(err)
		}
		var candidates []netsamp.LinkID
		for _, lid := range matrix.LinkSet() {
			if !s.Graph.Link(lid).Access {
				candidates = append(candidates, lid)
			}
		}
		factor := profile.Factor(t, r)
		demands := s.Demands.Scale(factor)
		loads, err := netsamp.LinkLoads(s.Graph, tbl, demands)
		if err != nil {
			log.Fatal(err)
		}
		d, err := ctl.StepResilient(context.Background(), netsamp.ControllerStepInput{
			Matrix:     matrix,
			Loads:      loads,
			Candidates: candidates,
			InvSizes:   inv,
		})
		if err != nil {
			log.Fatal(err)
		}
		changed := ""
		if d.SetChanged {
			changed = "yes"
		}
		fmt.Printf("%8d %9.4f %8d %12s %6.2f%% %s\n",
			t, d.Solution.Objective, len(d.Plan), changed, 100*d.Gain, event)
	}
	s.Graph.SetDown(frch, false)
	s.Graph.SetDown(chfr, false)
	fmt.Println("\nRates are re-tuned every interval; the monitor set stays put")
	fmt.Println("through load noise and only moves when routing or demand shifts")
	fmt.Println("make a different set clearly better.")
}
