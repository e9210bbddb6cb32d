package baseline

import (
	"math"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/topology"
)

func scenario(t *testing.T) *geant.Scenario {
	t.Helper()
	return geant.MustBuild(1)
}

func TestAccessLink(t *testing.T) {
	s := scenario(t)
	budget := core.BudgetPerInterval(100000, 300)
	a, err := AccessLink(s.Matrix, s.Loads, s.AccessLink, budget)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Rates[s.AccessLink]
	want := budget / s.Loads[s.AccessLink]
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("rate = %v, want %v", p, want)
	}
	// Every pair crosses the access link, so ρ_k = p for all pairs.
	for k, rho := range a.Rho {
		if math.Abs(rho-p) > 1e-12 {
			t.Fatalf("pair %d rho = %v, want %v", k, rho, p)
		}
	}
}

func TestAccessLinkErrors(t *testing.T) {
	s := scenario(t)
	if _, err := AccessLink(s.Matrix, s.Loads, topology.LinkID(9999), 1); err == nil {
		t.Fatal("bad link accepted")
	}
	// A budget above the access link's own rate needs p > 1.
	if _, err := AccessLink(s.Matrix, s.Loads, s.AccessLink, s.Loads[s.AccessLink]*2); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestAccessLinkCapacityForRate(t *testing.T) {
	s := scenario(t)
	got := AccessLinkCapacityForRate(s.Loads, s.AccessLink, 0.01)
	want := 0.01 * s.Loads[s.AccessLink]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("capacity = %v, want %v", got, want)
	}
}

func TestUniform(t *testing.T) {
	s := scenario(t)
	budget := core.BudgetPerInterval(100000, 300)
	a, err := Uniform(s.Matrix, s.Loads, s.MonitorLinks, budget)
	if err != nil {
		t.Fatal(err)
	}
	// All candidate links share one rate.
	var p float64
	for _, r := range a.Rates {
		p = r
		break
	}
	total := 0.0
	for lid, r := range a.Rates {
		if math.Abs(r-p) > 1e-15 {
			t.Fatalf("non-uniform rates: %v vs %v", r, p)
		}
		total += r * s.Loads[lid]
	}
	if math.Abs(total-budget) > 1e-6 {
		t.Fatalf("budget spent = %v, want %v", total, budget)
	}
}

func TestUniformErrors(t *testing.T) {
	s := scenario(t)
	if _, err := Uniform(s.Matrix, s.Loads, []topology.LinkID{9999}, 1); err == nil {
		t.Fatal("bad candidate accepted")
	}
	huge := 0.0
	for _, lid := range s.MonitorLinks {
		huge += s.Loads[lid]
	}
	if _, err := Uniform(s.Matrix, s.Loads, s.MonitorLinks, huge*2); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestRestrictedUKLinks(t *testing.T) {
	s := scenario(t)
	budget := core.BudgetPerInterval(100000, 300)
	in := plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.UKLinks,
		InvMeanSizes: s.UtilityParams(300),
		Budget:       budget,
	}
	a, sol, err := Restricted("uk-links", in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("restricted solve did not converge")
	}
	// Only UK links may carry rates.
	ukSet := map[topology.LinkID]bool{}
	for _, lid := range s.UKLinks {
		ukSet[lid] = true
	}
	for lid := range a.Rates {
		if !ukSet[lid] {
			t.Fatalf("non-UK link %v activated", lid)
		}
	}
	// The restriction is expensive: the optimizer may leave some pairs
	// effectively unmonitored (the paper's point about this baseline),
	// but the budget must be exhausted and most pairs measurable.
	if got := plan.SampledRate(a.Rates, s.Loads); math.Abs(got-budget)/budget > 1e-6 {
		t.Fatalf("budget spent = %v, want %v", got, budget)
	}
	monitored := 0
	for _, rho := range a.Rho {
		if rho > 0 {
			monitored++
		}
	}
	if monitored < len(a.Rho)/2 {
		t.Fatalf("only %d/%d pairs monitored under UK restriction", monitored, len(a.Rho))
	}
}

func TestOptimalBeatsBaselinesOnWorstPair(t *testing.T) {
	// The headline comparison (Figure 2): the full optimizer must achieve
	// a (weakly) better minimum utility than the restricted and uniform
	// baselines at the same budget.
	s := scenario(t)
	budget := core.BudgetPerInterval(100000, 300)
	inv := s.UtilityParams(300)

	full := plan.Input{
		Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks,
		InvMeanSizes: inv, Budget: budget,
	}
	_, fullSol, err := Restricted("optimal", full, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	uk := full
	uk.Candidates = s.UKLinks
	_, ukSol, err := Restricted("uk", uk, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Uniform(s.Matrix, s.Loads, s.MonitorLinks, budget)
	if err != nil {
		t.Fatal(err)
	}
	if fullSol.Objective < ukSol.Objective-1e-9 {
		t.Fatalf("restricted beat the full optimizer: %v vs %v", ukSol.Objective, fullSol.Objective)
	}
	// Uniform objective under the same utilities.
	uniObj := 0.0
	for k := range s.Pairs {
		uniObj += core.MustSRE(inv[k]).Value(uni.Rho[k])
	}
	if fullSol.Objective < uniObj-1e-9 {
		t.Fatalf("uniform beat the full optimizer: %v vs %v", uniObj, fullSol.Objective)
	}
}

func TestTwoPhaseGreedy(t *testing.T) {
	s := scenario(t)
	budget := core.BudgetPerInterval(100000, 300)
	a, err := TwoPhaseGreedy(s.Matrix, s.Loads, s.MonitorLinks, s.Rates, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Budget exhausted.
	if got := plan.SampledRate(a.Rates, s.Loads); math.Abs(got-budget)/budget > 1e-6 {
		t.Fatalf("budget spent = %v, want %v", got, budget)
	}
	// Every pair covered (positive effective rate).
	for k, rho := range a.Rho {
		if rho <= 0 {
			t.Fatalf("pair %s uncovered by greedy", s.Pairs[k].Name)
		}
	}
	// Optimal joint solution must beat the two-phase heuristic.
	inv := s.UtilityParams(300)
	_, opt, err := Restricted("optimal", plan.Input{
		Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks,
		InvMeanSizes: inv, Budget: budget,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedyObj := 0.0
	for k := range s.Pairs {
		greedyObj += core.MustSRE(inv[k]).Value(a.Rho[k])
	}
	if opt.Objective < greedyObj-1e-9 {
		t.Fatalf("two-phase greedy beat the optimum: %v vs %v", greedyObj, opt.Objective)
	}
}

func TestTwoPhaseGreedyMonitorCap(t *testing.T) {
	s := scenario(t)
	budget := core.BudgetPerInterval(20000, 300)
	a, err := TwoPhaseGreedy(s.Matrix, s.Loads, s.MonitorLinks, s.Rates, budget, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rates) > 3 {
		t.Fatalf("greedy used %d monitors, cap 3", len(a.Rates))
	}
}

func TestTwoPhaseGreedyErrors(t *testing.T) {
	s := scenario(t)
	if _, err := TwoPhaseGreedy(s.Matrix, s.Loads, s.MonitorLinks, []float64{1}, 10, 0); err == nil {
		t.Fatal("bad pairRates accepted")
	}
}

func TestFixedRate(t *testing.T) {
	s := scenario(t)
	a, err := FixedRate(s.Matrix, s.Loads, s.MonitorLinks, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rates) != len(s.MonitorLinks) {
		t.Fatalf("rates on %d links, want %d", len(a.Rates), len(s.MonitorLinks))
	}
	for _, p := range a.Rates {
		if p != 0.001 {
			t.Fatalf("rate = %v", p)
		}
	}
	// Budget consumed = rate × Σ loads.
	sum := 0.0
	for _, lid := range s.MonitorLinks {
		sum += s.Loads[lid]
	}
	if got := plan.SampledRate(a.Rates, s.Loads); math.Abs(got-0.001*sum) > 1e-9 {
		t.Fatalf("SampledRate = %v", got)
	}
	// Every pair gets a positive effective rate (all links monitored).
	for k, rho := range a.Rho {
		if rho <= 0 {
			t.Fatalf("pair %d unmonitored", k)
		}
	}
}

func TestFixedRateErrors(t *testing.T) {
	s := scenario(t)
	if _, err := FixedRate(s.Matrix, s.Loads, s.MonitorLinks, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := FixedRate(s.Matrix, s.Loads, []topology.LinkID{9999}, 0.001); err == nil {
		t.Fatal("bad link accepted")
	}
}

// TestOptimalBeatsFixedRateAtEqualBudget is the intro's option (i) vs
// option (ii): at the budget 1/1000-everywhere consumes, the optimized
// plan must achieve a higher objective.
func TestOptimalBeatsFixedRateAtEqualBudget(t *testing.T) {
	s := scenario(t)
	fixed, err := FixedRate(s.Matrix, s.Loads, s.MonitorLinks, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	budget := plan.SampledRate(fixed.Rates, s.Loads)
	inv := s.UtilityParams(300)
	_, opt, err := Restricted("optimal", plan.Input{
		Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks,
		InvMeanSizes: inv, Budget: budget,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fixedObj, fixedMin := 0.0, 1.0
	for k := range s.Pairs {
		u := core.MustSRE(inv[k]).Value(fixed.Rho[k])
		fixedObj += u
		if u < fixedMin {
			fixedMin = u
		}
	}
	if opt.Objective <= fixedObj {
		t.Fatalf("fixed-rate beat the optimum: %v vs %v", fixedObj, opt.Objective)
	}
	// The gap concentrates on the worst (small) pairs.
	optMin := 1.0
	for _, u := range opt.Utilities {
		if u < optMin {
			optMin = u
		}
	}
	if optMin <= fixedMin {
		t.Fatalf("optimal worst-pair %v not above fixed-rate worst-pair %v", optMin, fixedMin)
	}
}
