package core

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

// budgetSpend returns Σ p_i·U_i of rates under p's loads.
func budgetSpend(p *Problem, rates []float64) float64 {
	t := 0.0
	for i, r := range rates {
		t += r * p.Loads[i]
	}
	return t
}

// checkWarmFeasible asserts rates is a valid Options.Initial for p: in
// the box and on the budget hyperplane within initialPointInto's
// tolerance.
func checkWarmFeasible(t *testing.T, p *Problem, rates []float64) {
	t.Helper()
	if len(rates) != len(p.Loads) {
		t.Fatalf("warm start has %d rates for %d links", len(rates), len(p.Loads))
	}
	for i, r := range rates {
		if r < 0 || r > capAt(p.MaxRate, i)+snapTol {
			t.Fatalf("rate %d = %v outside [0, %v]", i, r, capAt(p.MaxRate, i))
		}
	}
	spend := budgetSpend(p, rates)
	if math.Abs(spend-p.Budget) > 1e-6*math.Max(1, p.Budget) {
		t.Fatalf("warm start spends %v of budget %v", spend, p.Budget)
	}
	// The point must be accepted verbatim by the solver's own validation.
	if err := polytopeOf(p).initialPointInto(Options{Initial: rates}, make([]float64, len(rates))); err != nil {
		t.Fatalf("initialPointInto rejects the warm start: %v", err)
	}
}

// TestWarmStartFeasible: the projection must return a budget-feasible
// point for arbitrary previous rate vectors — optima of other budgets,
// random junk, zeros, bound-violating and NaN-poisoned inputs alike.
func TestWarmStartFeasible(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 200; trial++ {
		p := wsRandomProblem(uint64(trial), 5+r.Intn(40), 1+r.Intn(30), false)
		n := len(p.Loads)
		prev := make([]float64, n)
		switch trial % 5 {
		case 0: // random in-box point
			for i := range prev {
				prev[i] = r.Float64() * capAt(p.MaxRate, i)
			}
		case 1: // all zero (degenerate previous plan)
		case 2: // saturated
			for i := range prev {
				prev[i] = capAt(p.MaxRate, i)
			}
		case 3: // out-of-box and negative entries
			for i := range prev {
				prev[i] = -1 + 3*r.Float64()
			}
		case 4: // NaN-poisoned
			for i := range prev {
				prev[i] = r.Float64() * capAt(p.MaxRate, i)
			}
			prev[r.Intn(n)] = math.NaN()
		}
		rates, err := compiled(t, p).WarmStart(&Solution{Rates: prev}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkWarmFeasible(t, p, rates)
	}
}

// TestWarmStartPreservesActiveSet: when the previous plan overspends the
// new budget, the projection is a rescale — links that were off must
// stay exactly off, so the solver inherits the active set.
func TestWarmStartPreservesActiveSet(t *testing.T) {
	p := wsRandomProblem(7, 20, 15, false)
	s := compiled(t, p)
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBudget(p.Budget / 2); err != nil {
		t.Fatal(err)
	}
	rates, err := s.WarmStart(sol, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sol.Rates {
		if r == 0 && rates[i] != 0 {
			t.Fatalf("link %d was off, warm start turned it on (%v)", i, rates[i])
		}
	}
	checkWarmFeasible(t, s.Problem(), rates)
}

// TestWarmStartInfeasibleBudget: a budget beyond Σ α_i·U_i must be
// reported, not silently projected. No Solver can be re-tuned onto such
// a budget (SetBudget rejects it), so the projection is driven on the
// polytope directly.
func TestWarmStartInfeasibleBudget(t *testing.T) {
	p := wsRandomProblem(9, 10, 8, false)
	s := compiled(t, p)
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *p
	max := 0.0
	for i, u := range p.Loads {
		max += capAt(p.MaxRate, i) * u
	}
	bad.Budget = max * 2
	n := len(p.Loads)
	if _, err := polytopeOf(&bad).warmStartRates(sol.Rates, nil, make([]bool, n), make([]bool, n)); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	if _, err := s.WarmStart(nil, nil); err == nil {
		t.Fatal("nil solution accepted")
	}
	if _, err := s.WarmStart(&Solution{Rates: make([]float64, 3)}, nil); err == nil {
		t.Fatal("wrong-length rates accepted")
	}
}

// TestWarmStartMatchesColdFixedPoint: a warm-started solve must land on
// the cold solve's fixed point — same objective within tolerance, same
// active monitor set — across budget and load perturbations.
func TestWarmStartMatchesColdFixedPoint(t *testing.T) {
	base := wsRandomProblem(23, 25, 20, false)
	prev, err := Solve(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		q := *base
		q.Loads = append([]float64(nil), base.Loads...)
		for i := range q.Loads {
			q.Loads[i] *= 0.8 + 0.4*r.Float64()
		}
		q.Budget = base.Budget * (0.5 + r.Float64())
		sq := compiled(t, &q)
		cold, err := sq.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm0, err := sq.WarmStart(prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := sq.Solve(Options{Initial: warm0})
		if err != nil {
			t.Fatal(err)
		}
		if !cold.Stats.Converged || !warm.Stats.Converged {
			t.Fatalf("trial %d: converged cold=%v warm=%v", trial, cold.Stats.Converged, warm.Stats.Converged)
		}
		if diff := math.Abs(cold.Objective - warm.Objective); diff > 1e-5*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: objectives differ by %v (cold %v, warm %v)", trial, diff, cold.Objective, warm.Objective)
		}
		prev = warm
	}
}

// TestSetBudgetSetLoads: re-tuning a compiled solver must match a fresh
// compile of the re-tuned problem bit for bit, and invalid re-tunes must
// be rejected without corrupting the workspace.
func TestSetBudgetSetLoads(t *testing.T) {
	p := wsRandomProblem(31, 30, 25, false)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	for trial := 0; trial < 20; trial++ {
		q := *p
		q.Loads = append([]float64(nil), p.Loads...)
		for i := range q.Loads {
			q.Loads[i] *= 0.5 + r.Float64()
		}
		q.Budget = p.Budget * (0.5 + r.Float64())
		// Loads first: the shared solver validates the current budget
		// against them, and p.Budget is feasible under ≥0.5× loads here.
		if err := s.SetLoads(q.Loads); err != nil {
			t.Fatal(err)
		}
		if err := s.SetBudget(q.Budget); err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSolver(&q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective != want.Objective || got.Lambda != want.Lambda {
			t.Fatalf("trial %d: retuned solve differs from fresh compile (obj %v vs %v)", trial, got.Objective, want.Objective)
		}
		for i := range got.Rates {
			if got.Rates[i] != want.Rates[i] {
				t.Fatalf("trial %d: rate %d differs: %v vs %v", trial, i, got.Rates[i], want.Rates[i])
			}
		}
	}
	// Validation: bad budgets and loads are rejected.
	if err := s.SetBudget(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if err := s.SetBudget(math.Inf(1)); err == nil {
		t.Fatal("infinite budget accepted")
	}
	if err := s.SetLoads(make([]float64, 3)); err == nil {
		t.Fatal("wrong-length loads accepted")
	}
	bad := append([]float64(nil), s.Problem().Loads...)
	bad[0] = -5
	if err := s.SetLoads(bad); err == nil {
		t.Fatal("negative load accepted")
	}
	// The caller's Problem must never see the re-tuning.
	if p.Budget != wsRandomProblem(31, 30, 25, false).Budget {
		t.Fatal("caller's problem budget mutated")
	}
}

// TestSetBudgetInfeasible: a budget above Σ α_i·U_i under the CURRENT
// loads must be rejected, and accepted again once loads grow.
func TestSetBudgetInfeasible(t *testing.T) {
	p := wsRandomProblem(53, 10, 8, false)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for i, u := range p.Loads {
		max += capAt(p.MaxRate, i) * u
	}
	if err := s.SetBudget(max * 1.5); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	grown := make([]float64, len(p.Loads))
	for i, u := range p.Loads {
		grown[i] = u * 2
	}
	if err := s.SetLoads(grown); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBudget(max * 1.5); err != nil {
		t.Fatalf("budget feasible under grown loads rejected: %v", err)
	}
	// And shrinking the loads back under a too-large budget must fail.
	if err := s.SetLoads(p.Loads); err == nil {
		t.Fatal("loads that strand the budget accepted")
	}
}

// TestWarmStartZeroAllocs: a continuation chain re-using the warm buffer
// must not allocate in steady state (the Solver lends its mask scratch).
func TestWarmStartZeroAllocs(t *testing.T) {
	p := wsRandomProblem(61, 30, 25, false)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	var sol Solution
	if err := s.SolveInto(&sol, Options{}); err != nil {
		t.Fatal(err)
	}
	warm, err := s.WarmStart(&sol, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.SetBudget(s.Problem().Budget * 0.999); err != nil {
			t.Fatal(err)
		}
		var werr error
		warm, werr = s.WarmStart(&sol, warm)
		if werr != nil {
			t.Fatal(werr)
		}
		if err := s.SolveInto(&sol, Options{Initial: warm}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state continuation allocates %v objects/op, want 0", allocs)
	}
}

// FuzzWarmStart: feasibility must hold for adversarial (prev, budget)
// combinations. The budget is clamped to the feasible maximum, so every
// instance compiles and the projection runs through Solver.WarmStart.
func FuzzWarmStart(f *testing.F) {
	f.Add(uint64(1), 0.5, 0.3)
	f.Add(uint64(2), 1.5, 0.9)
	f.Add(uint64(3), 0.001, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, budgetScale, fill float64) {
		if !(budgetScale > 0) || budgetScale > 10 || math.IsNaN(fill) {
			t.Skip()
		}
		p := wsRandomProblem(seed%100, 5+int(seed%20), 1+int(seed%15), false)
		max := 0.0
		for i, u := range p.Loads {
			max += capAt(p.MaxRate, i) * u
		}
		p.Budget = math.Min(p.Budget*budgetScale, max)
		if !(p.Budget > 0) {
			t.Skip()
		}
		r := rng.New(seed)
		prev := make([]float64, len(p.Loads))
		for i := range prev {
			prev[i] = fill * r.Float64() * capAt(p.MaxRate, i)
		}
		rates, err := compiled(t, p).WarmStart(&Solution{Rates: prev}, nil)
		if err != nil {
			t.Fatalf("projection failed: %v", err)
		}
		checkWarmFeasible(t, p, rates)
	})
}
