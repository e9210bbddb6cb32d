package plan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// fixture: A -> B -> C line with an A->C and a B->C pair.
func fixture(t *testing.T) (*topology.Graph, *routing.Matrix, []float64, []topology.LinkID) {
	t.Helper()
	g := topology.New()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	g.AddDuplex(a, b, topology.OC48, 1)
	g.AddDuplex(b, c, topology.OC48, 1)
	tbl := routing.ComputeTable(g)
	m, err := routing.BuildMatrix(tbl, []routing.ODPair{
		{Name: "A->C", Src: a, Dst: c},
		{Name: "B->C", Src: b, Dst: c},
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumLinks())
	ab, _ := g.FindLink(a, b)
	bc, _ := g.FindLink(b, c)
	loads[ab] = 1000
	loads[bc] = 2000
	return g, m, loads, []topology.LinkID{ab, bc}
}

func TestBuildProblem(t *testing.T) {
	_, m, loads, cands := fixture(t)
	prob, err := Build(Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   cands,
		InvMeanSizes: []float64{0.002, 0.001},
		Budget:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Loads) != 2 || prob.NumPairs() != 2 {
		t.Fatalf("problem shape: %d links %d pairs", len(prob.Loads), prob.NumPairs())
	}
	// Candidate i is dense link i.
	if prob.Loads[0] != 1000 || prob.Loads[1] != 2000 {
		t.Fatalf("loads mapped wrong: %v", prob.Loads)
	}
	// Pair A->C crosses both links; B->C only the second.
	if !reflect.DeepEqual(prob.Start, []int32{0, 2, 3}) || !reflect.DeepEqual(prob.Links, []int32{0, 1, 1}) {
		t.Fatalf("rows: Start %v Links %v", prob.Start, prob.Links)
	}
	if prob.Fracs != nil {
		t.Fatalf("single-path matrix gave fractions %v", prob.Fracs)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	_, m, loads, cands := fixture(t)
	cases := []Input{
		{Matrix: nil, Loads: loads, Candidates: cands, InvMeanSizes: []float64{0.1, 0.1}, Budget: 1},
		{Matrix: m, Loads: loads, Candidates: cands, InvMeanSizes: []float64{0.1}, Budget: 1},
		{Matrix: m, Loads: loads, Candidates: nil, InvMeanSizes: []float64{0.1, 0.1}, Budget: 1},
		{Matrix: m, Loads: loads, Candidates: []topology.LinkID{cands[0], cands[0]}, InvMeanSizes: []float64{0.1, 0.1}, Budget: 1},
		{Matrix: m, Loads: loads, Candidates: []topology.LinkID{99}, InvMeanSizes: []float64{0.1, 0.1}, Budget: 1},
		{Matrix: m, Loads: loads, Candidates: cands, InvMeanSizes: []float64{0.1, 5}, Budget: 1},
		{Matrix: m, Loads: loads, Candidates: cands, InvMeanSizes: []float64{0.1, 0.1}, Weights: []float64{1}, Budget: 1},
		// A matrix whose rows do not match its pairs.
		{Matrix: &routing.Matrix{Pairs: m.Pairs, Rows: m.Rows[:1]}, Loads: loads, Candidates: cands, InvMeanSizes: []float64{0.1, 0.1}, Budget: 1},
		// B->C does not traverse the A->B link: empty row under this set.
		{Matrix: m, Loads: loads, Candidates: cands[:1], InvMeanSizes: []float64{0.1, 0.1}, Budget: 1},
	}
	for i, in := range cases {
		if _, err := Build(in); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestBuildFractionRows: a nil fraction row of an ECMP matrix is
// single-path — every fraction 1, as routing.Matrix documents and
// EffectiveRates reads it — and a fraction row whose length differs
// from its link row is an error naming the pair.
func TestBuildFractionRows(t *testing.T) {
	_, m, loads, cands := fixture(t)
	ecmp := *m
	ecmp.Fracs = [][]float64{{0.5, 0.5}, nil}
	in := Input{Matrix: &ecmp, Loads: loads, Candidates: cands, InvMeanSizes: []float64{0.002, 0.001}, Budget: 10}
	prob, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prob.Fracs, []float64{0.5, 0.5, 1}) {
		t.Fatalf("Fracs = %v, want [0.5 0.5 1]", prob.Fracs)
	}
	got := prob.EffectiveRates([]float64{0.1, 0.2})
	want := EffectiveRates(&ecmp, map[topology.LinkID]float64{cands[0]: 0.1, cands[1]: 0.2}, nil)
	if !reflect.DeepEqual(got, want) || math.Abs(want[0]-0.15) > 1e-15 || want[1] != 0.2 {
		t.Fatalf("problem rho %v, matrix rho %v, want [0.15 0.2]", got, want)
	}

	ecmp.Fracs = [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	if _, err := Build(in); err == nil || !strings.Contains(err.Error(), `"B->C"`) {
		t.Fatalf("mismatched fraction row: err = %v, want one naming pair \"B->C\"", err)
	}
}

func TestBuildMaxRates(t *testing.T) {
	_, m, loads, cands := fixture(t)
	prob, err := Build(Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   cands,
		InvMeanSizes: []float64{0.002, 0.001},
		Budget:       10,
		MaxRates:     map[topology.LinkID]float64{cands[0]: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prob.MaxRate[0] != 0.02 || prob.MaxRate[1] != 1 {
		t.Fatalf("MaxRate = %v", prob.MaxRate)
	}
}

func TestRoundTripSolveAndMapBack(t *testing.T) {
	_, m, loads, cands := fixture(t)
	prob, err := Build(Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   cands,
		InvMeanSizes: []float64{0.002, 0.002},
		Budget:       15,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(prob, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rates := RatesByLink(sol, cands)
	if got := SampledRate(rates, loads); math.Abs(got-15) > 1e-6 {
		t.Fatalf("SampledRate = %v", got)
	}
	rho := EffectiveRates(m, rates, nil)
	for k := range rho {
		if math.Abs(rho[k]-sol.Rho[k]) > 1e-12 {
			t.Fatalf("rho mismatch pair %d: %v vs %v", k, rho[k], sol.Rho[k])
		}
	}
}

func TestEffectiveRatesExact(t *testing.T) {
	_, m, _, cands := fixture(t)
	rates := map[topology.LinkID]float64{cands[0]: 0.5, cands[1]: 0.5}
	rho := EffectiveRates(m, rates, core.ModelIndependentExact)
	if math.Abs(rho[0]-0.75) > 1e-12 {
		t.Fatalf("exact rho = %v, want 0.75", rho[0])
	}
	if math.Abs(rho[1]-0.5) > 1e-12 {
		t.Fatalf("exact rho (single link) = %v", rho[1])
	}
}

// TestECMPEndToEnd routes a pair over an ECMP diamond, builds the
// fractional problem, solves it, and cross-checks the effective rates.
func TestECMPEndToEnd(t *testing.T) {
	g := topology.New()
	a, b, c2, d := g.AddNode("A"), g.AddNode("B"), g.AddNode("C"), g.AddNode("D")
	ab, _ := g.AddDuplex(a, b, topology.OC48, 1)
	ac, _ := g.AddDuplex(a, c2, topology.OC48, 1)
	bd, _ := g.AddDuplex(b, d, topology.OC48, 1)
	cd, _ := g.AddDuplex(c2, d, topology.OC48, 1)
	tbl := routing.ComputeTable(g)
	m, err := routing.BuildMatrixECMP(tbl, []routing.ODPair{{Name: "A->D", Src: a, Dst: d}})
	if err != nil {
		t.Fatal(err)
	}
	demands := &traffic.Matrix{Demands: []traffic.Demand{
		{Pair: routing.ODPair{Name: "A->D", Src: a, Dst: d}, Rate: 2000},
	}}
	loads, err := traffic.LinkLoadsECMP(g, tbl, demands)
	if err != nil {
		t.Fatal(err)
	}
	cands := []topology.LinkID{ab, ac, bd, cd}
	prob, err := Build(Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   cands,
		InvMeanSizes: []float64{1.0 / (2000 * 300)},
		Budget:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prob.Fracs == nil {
		t.Fatal("fractions not threaded into the problem")
	}
	sol, err := core.Solve(prob, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("ECMP solve did not converge")
	}
	rates := RatesByLink(sol, cands)
	rho := EffectiveRates(m, rates, nil)
	if math.Abs(rho[0]-sol.Rho[0]) > 1e-12 {
		t.Fatalf("rho mismatch: %v vs %v", rho[0], sol.Rho[0])
	}
	// Sampling either branch covers only half the pair's packets: with
	// all rates p equal, rho = 0.5p+0.5p+0.5p+0.5p... on a 2-hop path
	// each packet crosses exactly 2 of the 4 links, so rho = 2*0.5*p.
	total := 0.0
	for lid, p := range rates {
		total += p * loads[lid]
	}
	if math.Abs(total-10) > 1e-6 {
		t.Fatalf("budget spent = %v", total)
	}
}
