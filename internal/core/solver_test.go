package core

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

// compiled returns p's Solver: the kernels the tests evaluate are the
// compiled ones, which is the code that actually runs.
func compiled(t testing.TB, p *Problem) *Solver {
	t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// polytopeOf is p's feasible set, for driving the feasibility helpers on
// problems that are never compiled.
func polytopeOf(p *Problem) *polytope {
	return &polytope{loads: p.Loads, alpha: fullCaps(p.MaxRate, len(p.Loads)), budget: p.Budget}
}

// feasibility asserts the solution satisfies all constraints of p.
func feasibility(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	total := 0.0
	for i, r := range sol.Rates {
		if r < -1e-12 {
			t.Fatalf("rate[%d] = %v < 0", i, r)
		}
		if a := capAt(p.MaxRate, i); r > a+1e-9 {
			t.Fatalf("rate[%d] = %v > α=%v", i, r, a)
		}
		total += r * p.Loads[i]
	}
	if math.Abs(total-p.Budget) > 1e-6*math.Max(1, p.Budget) {
		t.Fatalf("budget: Σ p·U = %v, want %v", total, p.Budget)
	}
}

// kktResidual asserts the KKT stationarity and sign conditions.
func kktCheck(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	n := len(p.Loads)
	g := make([]float64, n)
	compiled(t, p).gradient(sol.Rates, g)
	scale := 1 + normInf(g)
	for i := 0; i < n; i++ {
		interior := sol.Rates[i] > 1e-9 && sol.Rates[i] < capAt(p.MaxRate, i)-1e-9
		resid := g[i] - sol.Lambda*p.Loads[i]
		if interior && math.Abs(resid)/scale > 1e-6 {
			t.Fatalf("stationarity violated at free link %d: residual %v", i, resid)
		}
		if sol.Rates[i] <= 1e-9 && resid/scale > 1e-6 {
			t.Fatalf("lower-bound multiplier negative at link %d: %v", i, -resid)
		}
		if sol.Rates[i] >= capAt(p.MaxRate, i)-1e-9 && -resid/scale > 1e-6 {
			t.Fatalf("upper-bound multiplier negative at link %d: %v", i, resid)
		}
	}
}

func TestSolveSingleLink(t *testing.T) {
	p := instance{
		Loads:  []float64{1000},
		Budget: 5, // p = 0.005
		Pairs:  []pair{{Links: []int{0}, Utility: MustSRE(0.002)}},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("did not converge")
	}
	feasibility(t, p, sol)
	if math.Abs(sol.Rates[0]-0.005) > 1e-9 {
		t.Fatalf("rate = %v, want 0.005", sol.Rates[0])
	}
	if math.Abs(sol.Rho[0]-0.005) > 1e-9 {
		t.Fatalf("rho = %v", sol.Rho[0])
	}
}

func TestSolveSymmetricTwoLinks(t *testing.T) {
	// Two pairs on two disjoint identical links must get equal rates.
	p := instance{
		Loads:  []float64{1000, 1000},
		Budget: 10,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	kktCheck(t, p, sol)
	if math.Abs(sol.Rates[0]-sol.Rates[1]) > 1e-9 {
		t.Fatalf("asymmetric rates on a symmetric problem: %v", sol.Rates)
	}
	if math.Abs(sol.Rates[0]-0.005) > 1e-9 {
		t.Fatalf("rates = %v, want 0.005 each", sol.Rates)
	}
}

func TestSolveEqualizesMarginalUtilityPerCost(t *testing.T) {
	// Two disjoint links with different loads: at an interior optimum,
	// M'(ρ_k)/U_i must be equal across active links (KKT stationarity).
	// Budget is large enough that both effective rates land on the
	// analytic branch (ρ > x₀), where M'(ρ) = c/ρ² gives the closed-form
	// ratio p₁/p₂ = √(U₂/U₁).
	p := instance{
		Loads:  []float64{500, 4000},
		Budget: 40,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	kktCheck(t, p, sol)
	u := MustSRE(0.002)
	m0 := u.Deriv(sol.Rho[0]) / p.Loads[0]
	m1 := u.Deriv(sol.Rho[1]) / p.Loads[1]
	if math.Abs(m0-m1)/m0 > 1e-5 {
		t.Fatalf("marginal utility per cost not equalized: %v vs %v", m0, m1)
	}
	// The lightly-loaded link must be sampled at the higher rate
	// (closed form: p_i ∝ 1/√U_i on the analytic branch).
	if sol.Rates[0] <= sol.Rates[1] {
		t.Fatalf("light link sampled no faster than heavy: %v", sol.Rates)
	}
	wantRatio := math.Sqrt(p.Loads[1] / p.Loads[0])
	gotRatio := sol.Rates[0] / sol.Rates[1]
	if math.Abs(gotRatio-wantRatio)/wantRatio > 1e-4 {
		t.Fatalf("rate ratio = %v, want √(U2/U1) = %v", gotRatio, wantRatio)
	}
}

func TestSolveDeactivatesUselessLink(t *testing.T) {
	// Link 2 carries no OD pair of interest: its optimal rate is zero
	// (the monitor stays off), even though the waterfill start gives it a
	// positive rate.
	p := instance{
		Loads:  []float64{1000, 1000, 1000},
		Budget: 10,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	kktCheck(t, p, sol)
	if sol.Rates[2] != 0 {
		t.Fatalf("useless link sampled at %v", sol.Rates[2])
	}
	active := sol.ActiveMonitors()
	if len(active) != 2 || active[0] != 0 || active[1] != 1 {
		t.Fatalf("ActiveMonitors = %v", active)
	}
}

func TestSolveSharedLinkPreferred(t *testing.T) {
	// Both pairs traverse link 0; only pair b traverses link 1. All loads
	// equal. Sampling link 0 helps both pairs, so it must get the bulk of
	// the budget.
	p := instance{
		Loads:  []float64{1000, 1000},
		Budget: 6,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{0, 1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	kktCheck(t, p, sol)
	if sol.Rates[0] <= sol.Rates[1] {
		t.Fatalf("shared link not preferred: %v", sol.Rates)
	}
}

func TestSolveRespectsRateCap(t *testing.T) {
	p := instance{
		Loads:   []float64{100, 10000},
		MaxRate: []float64{0.01, 1},
		Budget:  50,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	kktCheck(t, p, sol)
	// Link 0 would get a far higher rate unconstrained; the cap must bind.
	if math.Abs(sol.Rates[0]-0.01) > 1e-9 {
		t.Fatalf("cap not binding: rate = %v", sol.Rates[0])
	}
}

func TestSolveUsesFullBudget(t *testing.T) {
	p := instance{
		Loads:  []float64{1000, 2000, 500},
		Budget: 25,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.001)},
			{Links: []int{2}, Utility: MustSRE(0.005)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	spend := 0.0
	for i, r := range sol.Rates {
		spend += r * p.Loads[i]
	}
	if math.Abs(spend-25) > 1e-6 {
		t.Fatalf("sampled rate = %v", spend)
	}
}

func TestSolveObjectiveMonotoneInBudget(t *testing.T) {
	mk := func(budget float64) *Problem {
		return instance{
			Loads:  []float64{1000, 3000, 700},
			Budget: budget,
			Pairs: []pair{
				{Links: []int{0, 1}, Utility: MustSRE(0.002)},
				{Links: []int{1, 2}, Utility: MustSRE(0.001)},
				{Links: []int{2}, Utility: MustSRE(0.004)},
			},
		}.problem()
	}
	prev := math.Inf(-1)
	for _, budget := range []float64{1, 5, 20, 80, 300} {
		sol, err := Solve(mk(budget), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective <= prev {
			t.Fatalf("objective not increasing in budget: %v at θ=%v after %v", sol.Objective, budget, prev)
		}
		prev = sol.Objective
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := instance{
		Loads:  []float64{900, 1100, 4000, 60},
		Budget: 30,
		Pairs: []pair{
			{Links: []int{0, 2}, Utility: MustSRE(0.002)},
			{Links: []int{1, 2}, Utility: MustSRE(0.0008)},
			{Links: []int{3}, Utility: MustSRE(0.01)},
		},
	}.problem()
	s1, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Rates {
		if s1.Rates[i] != s2.Rates[i] {
			t.Fatalf("nondeterministic rates at %d: %v vs %v", i, s1.Rates[i], s2.Rates[i])
		}
	}
}

func TestSolveFromCustomInitialPoint(t *testing.T) {
	p := instance{
		Loads:  []float64{1000, 1000},
		Budget: 10,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	// Lopsided but feasible start; the optimum must still be symmetric.
	sol, err := Solve(p, Options{Initial: []float64{0.009, 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Rates[0]-sol.Rates[1]) > 1e-7 {
		t.Fatalf("rates = %v, want symmetric", sol.Rates)
	}
}

func TestSolveRejectsBadInitial(t *testing.T) {
	p := instance{
		Loads:  []float64{1000},
		Budget: 5,
		Pairs:  []pair{{Links: []int{0}, Utility: MustSRE(0.002)}},
	}.problem()
	bad := [][]float64{
		{0.004},        // wrong budget
		{-0.001},       // negative
		{1.5},          // above cap
		{0.005, 0.005}, // wrong length
	}
	for i, init := range bad {
		if _, err := Solve(p, Options{Initial: init}); err == nil {
			t.Errorf("bad initial %d accepted", i)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	good := func() *Problem {
		return instance{
			Loads:  []float64{100},
			Budget: 1,
			Pairs:  []pair{{Links: []int{0}, Utility: MustSRE(0.01)}},
		}.problem()
	}
	cases := []func(p *Problem){
		func(p *Problem) { p.Loads = nil },
		func(p *Problem) { p.Loads = []float64{0} },
		func(p *Problem) { p.Loads = []float64{math.NaN()} },
		func(p *Problem) { p.Budget = 0 },
		func(p *Problem) { p.Budget = 1e9 }, // infeasible
		func(p *Problem) { p.MaxRate = []float64{2} },
		func(p *Problem) { p.MaxRate = []float64{0.5, 0.5} },
		func(p *Problem) { p.Start, p.Links, p.Utilities = []int32{0}, nil, nil }, // no pairs
		func(p *Problem) { p.Utilities[0] = nil },
		func(p *Problem) { p.Start[1], p.Links = 0, nil },           // empty row
		func(p *Problem) { p.Links[0] = 3 },                         // out of range
		func(p *Problem) { p.Start[1], p.Links = 2, []int32{0, 0} }, // link twice
	}
	for i, mutate := range cases {
		p := good()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good problem rejected: %v", err)
	}
}

// TestSolveRandomProblemsKKT is the central property test: on random
// instances the solver must return a feasible point, and whenever it
// claims convergence the KKT conditions must hold.
func TestSolveRandomProblemsKKT(t *testing.T) {
	r := rng.New(2024)
	converged := 0
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		nLinks := 2 + r.Intn(12)
		nPairs := 1 + r.Intn(8)
		in := &instance{
			Loads:  make([]float64, nLinks),
			Budget: 0,
		}
		maxSampled := 0.0
		for i := range in.Loads {
			in.Loads[i] = 20 + 50000*r.Float64()
			maxSampled += in.Loads[i]
		}
		in.Budget = maxSampled * (0.0005 + 0.01*r.Float64())
		for k := 0; k < nPairs; k++ {
			maxHops := 4
			if nLinks < maxHops {
				maxHops = nLinks
			}
			nHops := 1 + r.Intn(maxHops)
			perm := r.Perm(nLinks)
			links := perm[:nHops]
			c := math.Pow(10, -4+3*r.Float64()) // 1e-4 … 1e-1
			in.Pairs = append(in.Pairs, pair{
				Links: append([]int(nil), links...), Utility: MustSRE(c),
			})
		}
		p := in.problem()
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		feasibility(t, p, sol)
		if sol.Stats.Converged {
			converged++
			kktCheck(t, p, sol)
		}
		// The solution must beat (or match) the waterfill start.
		s := compiled(t, p)
		init := make([]float64, nLinks)
		if err := s.initialPointInto(Options{}, init); err != nil {
			t.Fatal(err)
		}
		if sol.Objective < s.objective(init)-1e-9 {
			t.Fatalf("trial %d: objective %v below initial %v", trial, sol.Objective, s.objective(init))
		}
	}
	// The paper reports 98.6%% convergence within 2000 iterations; our
	// synthetic instances are easier, but require at least 90%%.
	if float64(converged)/trials < 0.9 {
		t.Fatalf("only %d/%d trials converged", converged, trials)
	}
}

func TestSolveExactModelAgreesAtLowRates(t *testing.T) {
	mk := func(exact bool) *Problem {
		return instance{
			Loads:  []float64{30000, 8000, 2000, 500},
			Budget: 60,
			Model:  modelForExact(exact),
			Pairs: []pair{
				{Links: []int{0, 1}, Utility: MustSRE(0.002)},
				{Links: []int{1, 2}, Utility: MustSRE(0.001)},
				{Links: []int{3}, Utility: MustSRE(0.003)},
			},
		}.problem()
	}
	approx, err := Solve(mk(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(mk(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At optimal rates (well below 1%) the two models must agree closely
	// (paper Section IV-B justifies approximation (7) in this regime).
	for i := range approx.Rates {
		diff := math.Abs(approx.Rates[i] - exact.Rates[i])
		if diff > 0.02*math.Max(approx.Rates[i], 1e-4) {
			t.Fatalf("rate %d: approx %v vs exact %v", i, approx.Rates[i], exact.Rates[i])
		}
	}
}

func TestSolveAblationsReachSameOptimum(t *testing.T) {
	p := instance{
		Loads:  []float64{900, 1100, 4000, 60, 777},
		Budget: 35,
		Pairs: []pair{
			{Links: []int{0, 2}, Utility: MustSRE(0.002)},
			{Links: []int{1, 2}, Utility: MustSRE(0.0008)},
			{Links: []int{3}, Utility: MustSRE(0.01)},
			{Links: []int{4, 0}, Utility: MustSRE(0.004)},
		},
	}.problem()
	base, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPR, err := Solve(p, Options{DisablePolakRibiere: true})
	if err != nil {
		t.Fatal(err)
	}
	noNewton, err := Solve(p, Options{DisableNewton: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []*Solution{noPR, noNewton} {
		if math.Abs(alt.Objective-base.Objective) > 1e-6*math.Abs(base.Objective) {
			t.Fatalf("ablation reached different optimum: %v vs %v", alt.Objective, base.Objective)
		}
	}
}

func TestBudgetPerInterval(t *testing.T) {
	// The paper's setting: θ = 100,000 packets per 5-minute interval.
	if got := BudgetPerInterval(100000, 300); math.Abs(got-333.3333333333) > 1e-6 {
		t.Fatalf("BudgetPerInterval = %v", got)
	}
}

func TestSolveMaxMinLiftsWorstPair(t *testing.T) {
	// Asymmetric problem: under sum-of-utilities the cheap pair wins; the
	// max-min solution must lift the worst pair's utility.
	p := instance{
		Loads:  []float64{100, 20000},
		Budget: 30,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sum, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := SolveMaxMinExact(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	minOf := func(u []float64) float64 {
		m := math.Inf(1)
		for _, v := range u {
			m = math.Min(m, v)
		}
		return m
	}
	if minOf(mm.Utilities) < minOf(sum.Utilities)-1e-9 {
		t.Fatalf("max-min worst utility %v below sum-objective worst %v",
			minOf(mm.Utilities), minOf(sum.Utilities))
	}
	// Feasibility of the max-min solution.
	feasibility(t, p, mm)
	// Analytic max-min optimum: with one disjoint link per pair and equal
	// utilities, the worst pair is maximized by equal rates,
	// p = θ/(U₁+U₂); the certified minimum must match it.
	u := MustSRE(0.002)
	optMin := u.Value(p.Budget / (p.Loads[0] + p.Loads[1]))
	if math.Abs(minOf(mm.Utilities)-optMin) > 1e-6 {
		t.Fatalf("max-min worst utility %v, analytic optimum %v", minOf(mm.Utilities), optMin)
	}
}

func TestPairWeightSkewsAllocation(t *testing.T) {
	mk := func(w float64) *Problem {
		return instance{
			Loads:  []float64{1000, 1000},
			Budget: 10,
			Pairs: []pair{
				{Links: []int{0}, Utility: MustSRE(0.002), Weight: w},
				{Links: []int{1}, Utility: MustSRE(0.002)},
			},
		}.problem()
	}
	even, err := Solve(mk(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Solve(mk(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(skewed.Rates[0] > even.Rates[0]) {
		t.Fatalf("weight did not raise pair-a rate: %v vs %v", skewed.Rates[0], even.Rates[0])
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	r := rng.New(7)
	nLinks, nPairs := 40, 25
	in := &instance{Loads: make([]float64, nLinks)}
	maxSampled := 0.0
	for i := range in.Loads {
		in.Loads[i] = 100 + 40000*r.Float64()
		maxSampled += in.Loads[i]
	}
	in.Budget = maxSampled * 0.002
	for k := 0; k < nPairs; k++ {
		perm := r.Perm(nLinks)
		in.Pairs = append(in.Pairs, pair{
			Links: append([]int(nil), perm[:1+r.Intn(4)]...), Utility: MustSRE(0.002),
		})
	}
	p := in.problem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLambdaIsMarginalValueOfCapacity validates the economic reading of
// the budget multiplier (the paper's Lagrangian, equation (6)): at the
// optimum, λ equals dF*/dθ — the utility gained per extra unit of
// sampled-packet capacity. Finite differences over θ must match the
// reported multiplier.
func TestLambdaIsMarginalValueOfCapacity(t *testing.T) {
	mk := func(budget float64) *Problem {
		return instance{
			Loads:  []float64{30000, 8000, 2000, 500},
			Budget: budget,
			Pairs: []pair{
				{Links: []int{0, 1}, Utility: MustSRE(0.0001)},
				{Links: []int{1, 2}, Utility: MustSRE(0.001)},
				{Links: []int{3}, Utility: MustSRE(0.0002)},
			},
		}.problem()
	}
	for _, theta := range []float64{20, 100, 400} {
		sol, err := Solve(mk(theta), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Stats.Converged {
			t.Fatalf("θ=%v did not converge", theta)
		}
		h := theta * 0.001
		up, err := Solve(mk(theta+h), Options{})
		if err != nil {
			t.Fatal(err)
		}
		dn, err := Solve(mk(theta-h), Options{})
		if err != nil {
			t.Fatal(err)
		}
		fd := (up.Objective - dn.Objective) / (2 * h)
		if math.Abs(fd-sol.Lambda)/math.Max(sol.Lambda, 1e-12) > 0.02 {
			t.Fatalf("θ=%v: λ = %v, finite-difference marginal %v", theta, sol.Lambda, fd)
		}
	}
}
