package core

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

// TestSolveLargeInstance exercises a 300-link, 150-pair instance —
// "hundreds of monitoring points", the scale the paper's introduction
// targets.
func TestSolveLargeInstance(t *testing.T) {
	r := rng.New(4242)
	nLinks, nPairs := 300, 150
	in := &instance{Loads: make([]float64, nLinks)}
	total := 0.0
	for i := range in.Loads {
		in.Loads[i] = math.Pow(10, 2+3*r.Float64()) // 100 … 100k pkt/s
		total += in.Loads[i]
	}
	in.Budget = total * 0.001
	for k := 0; k < nPairs; k++ {
		perm := r.Perm(nLinks)
		nHops := 1 + r.Intn(5)
		in.Pairs = append(in.Pairs, pair{
			Links:   append([]int(nil), perm[:nHops]...),
			Utility: MustSRE(math.Pow(10, -6+3*r.Float64())),
		})
	}
	p := in.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	if !sol.Stats.Converged {
		t.Fatalf("large instance did not converge in %d iterations", sol.Stats.Iterations)
	}
	kktCheck(t, p, sol)
}

// TestSolveBudgetAtMaximum: θ equal to the full samplable rate forces
// every rate to its cap (a vertex solution).
func TestSolveBudgetAtMaximum(t *testing.T) {
	p := instance{
		Loads:   []float64{1000, 2000},
		MaxRate: []float64{0.5, 0.25},
		Budget:  1000*0.5 + 2000*0.25,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.001)},
			{Links: []int{1}, Utility: MustSRE(0.001)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("vertex instance did not converge")
	}
	if math.Abs(sol.Rates[0]-0.5) > 1e-9 || math.Abs(sol.Rates[1]-0.25) > 1e-9 {
		t.Fatalf("rates = %v, want the caps", sol.Rates)
	}
}

// TestSolveTinyBudget: a budget far below one packet per second still
// produces a feasible, certified solution.
func TestSolveTinyBudget(t *testing.T) {
	p := instance{
		Loads:  []float64{50000, 80000},
		Budget: 0.001,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.0001)},
			{Links: []int{1}, Utility: MustSRE(0.0001)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	if !sol.Stats.Converged {
		t.Fatal("tiny budget did not converge")
	}
}

// TestSolveManyPairsOneLink: hundreds of pairs sharing a single link.
func TestSolveManyPairsOneLink(t *testing.T) {
	in := &instance{
		Loads:  []float64{100000},
		Budget: 100,
	}
	for k := 0; k < 400; k++ {
		in.Pairs = append(in.Pairs, pair{
			Links: []int{0}, Utility: MustSRE(0.0001 + 0.000001*float64(k)),
		})
	}
	p := in.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Rates[0]-0.001) > 1e-12 {
		t.Fatalf("rate = %v, want 0.001 (single-link budget identity)", sol.Rates[0])
	}
}

// TestSolveEqualityOfBudgetAndSingleCap: budget exactly consumable by
// one link at its cap while the other stays free.
func TestSolveDegenerateSingleFree(t *testing.T) {
	p := instance{
		Loads:   []float64{1000, 1000},
		MaxRate: []float64{0.001, 1},
		Budget:  5,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.01)},
			{Links: []int{1}, Utility: MustSRE(0.0001)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	// Link 0 saturates (cheap pair wants more but is capped), link 1
	// absorbs the rest.
	if math.Abs(sol.Rates[0]-0.001) > 1e-9 {
		t.Fatalf("capped rate = %v", sol.Rates[0])
	}
	if math.Abs(sol.Rates[1]-0.004) > 1e-9 {
		t.Fatalf("free rate = %v, want 0.004", sol.Rates[1])
	}
}

// TestSolveNoPanicOnRepeatedSolves: the solver must not share state
// across calls (regression guard for buffer reuse bugs).
func TestSolveNoStateLeak(t *testing.T) {
	p := instance{
		Loads:  []float64{1000, 3000},
		Budget: 10,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.001)},
		},
	}.problem()
	first, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range first.Rates {
			if first.Rates[j] != again.Rates[j] {
				t.Fatalf("solve %d diverged: %v vs %v", i, again.Rates, first.Rates)
			}
		}
	}
}

// TestMaxMinLargeInstance: the certified max-min solver stays feasible
// and above the sum objective's worst pair at scale.
func TestMaxMinLargeInstance(t *testing.T) {
	r := rng.New(515)
	nLinks, nPairs := 40, 30
	in := &instance{Loads: make([]float64, nLinks)}
	total := 0.0
	for i := range in.Loads {
		in.Loads[i] = 100 + 20000*r.Float64()
		total += in.Loads[i]
	}
	in.Budget = total * 0.002
	for k := 0; k < nPairs; k++ {
		perm := r.Perm(nLinks)
		in.Pairs = append(in.Pairs, pair{
			Links: append([]int(nil), perm[:1+r.Intn(3)]...), Utility: MustSRE(0.0005),
		})
	}
	p := in.problem()
	mm, err := SolveMaxMinExact(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, mm)
	sum, err := Solve(p, Options{})
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
		t.Fatalf("max-min min %v below sum min %v", minOf(mm.Utilities), minOf(sum.Utilities))
	}
}

// TestSolveExactModelRandomKKT: the solver under the exact rate model
// must also return feasible, certified points on random instances.
func TestSolveExactModelRandomKKT(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 30; trial++ {
		nLinks := 2 + r.Intn(8)
		in := &instance{Loads: make([]float64, nLinks), Model: ModelIndependentExact}
		total := 0.0
		for i := range in.Loads {
			in.Loads[i] = 50 + 20000*r.Float64()
			total += in.Loads[i]
		}
		in.Budget = total * (0.001 + 0.01*r.Float64())
		nPairs := 1 + r.Intn(5)
		for k := 0; k < nPairs; k++ {
			perm := r.Perm(nLinks)
			maxHops := 3
			if nLinks < maxHops {
				maxHops = nLinks
			}
			in.Pairs = append(in.Pairs, pair{
				Links:   append([]int(nil), perm[:1+r.Intn(maxHops)]...),
				Utility: MustSRE(math.Pow(10, -4+2*r.Float64())),
			})
		}
		p := in.problem()
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		feasibility(t, p, sol)
		if sol.Stats.Converged {
			kktCheck(t, p, sol)
		}
	}
}
