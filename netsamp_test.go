package netsamp_test

import (
	"math"
	"testing"

	"netsamp"
)

// TestFacadeWorkflow exercises the documented public workflow end to end
// on a small topology: build, route, load, optimize, map back.
func TestFacadeWorkflow(t *testing.T) {
	g := netsamp.NewGraph()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	ab, _ := g.AddDuplex(a, b, netsamp.OC48, 10)
	bc, _ := g.AddDuplex(b, c, netsamp.OC12, 10)

	tbl := netsamp.ComputeRouting(g)
	pairs := []netsamp.ODPair{
		{Name: "A->C", Src: a, Dst: c},
		{Name: "B->C", Src: b, Dst: c},
	}
	m, err := netsamp.BuildRoutingMatrix(tbl, pairs)
	if err != nil {
		t.Fatal(err)
	}
	demands := &netsamp.TrafficMatrix{Demands: []netsamp.Demand{
		{Pair: pairs[0], Rate: 4000},
		{Pair: pairs[1], Rate: 1000},
	}}
	loads, err := netsamp.LinkLoads(g, tbl, demands)
	if err != nil {
		t.Fatal(err)
	}
	candidates := []netsamp.LinkID{ab, bc}
	prob, err := netsamp.BuildProblem(netsamp.PlanInput{
		Matrix:       m,
		Loads:        loads,
		Candidates:   candidates,
		InvMeanSizes: []float64{1.0 / (4000 * 300), 1.0 / (1000 * 300)},
		Budget:       netsamp.BudgetPerInterval(10000, 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Loads) != 2 || prob.NumPairs() != 2 {
		t.Fatalf("problem shape: %d links, %d pairs", len(prob.Loads), prob.NumPairs())
	}
	sol, err := netsamp.Solve(prob, netsamp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("facade workflow did not converge")
	}
	rates := netsamp.RatesByLink(sol, candidates)
	if got := netsamp.SampledRate(rates, loads); math.Abs(got-10000.0/300) > 1e-6 {
		t.Fatalf("sampled rate = %v", got)
	}
	rho := netsamp.EffectiveRates(m, rates, nil)
	for k, r := range rho {
		if r <= 0 {
			t.Fatalf("pair %d unmonitored", k)
		}
		if math.Abs(r-sol.Rho[k]) > 1e-12 {
			t.Fatalf("facade rho mismatch: %v vs %v", r, sol.Rho[k])
		}
	}
}

func TestFacadeSRE(t *testing.T) {
	u, err := netsamp.NewSRE(0.002)
	if err != nil {
		t.Fatal(err)
	}
	if u.Value(0) != 0 || u.Value(1) <= 0.99 {
		t.Fatalf("SRE endpoints: %v, %v", u.Value(0), u.Value(1))
	}
}

func TestFacadeGEANT(t *testing.T) {
	s, err := netsamp.BuildGEANT(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs) != 20 {
		t.Fatalf("pairs = %d", len(s.Pairs))
	}
}

func TestFacadeMaxMin(t *testing.T) {
	u1, _ := netsamp.NewSRE(0.001)
	u2, _ := netsamp.NewSRE(0.001)
	prob := &netsamp.Problem{
		Loads:     []float64{100, 10000},
		Budget:    20,
		Start:     []int32{0, 1, 2}, // pair a on link 0, pair b on link 1
		Links:     []int32{0, 1},
		Utilities: []netsamp.Utility{u1, u2},
	}
	sol, err := netsamp.SolveMaxMinExact(prob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Rates) != 2 {
		t.Fatalf("rates = %v", sol.Rates)
	}
}
