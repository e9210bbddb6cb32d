package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"netsamp/internal/rng"
)

// modelForExact maps the tests' historical exact flag to a rate model.
func modelForExact(exact bool) RateModel {
	if exact {
		return ModelIndependentExact
	}
	return nil
}

// wsRandomProblem builds a randomized feasible instance for the
// workspace tests (same regime as the stress tests).
func wsRandomProblem(seed uint64, nLinks, nPairs int, exact bool) *Problem {
	r := rng.New(seed)
	in := &instance{Loads: make([]float64, nLinks), Model: modelForExact(exact)}
	total := 0.0
	for i := range in.Loads {
		in.Loads[i] = math.Pow(10, 2+3*r.Float64())
		total += in.Loads[i]
	}
	in.Budget = total * 0.001
	for k := 0; k < nPairs; k++ {
		perm := r.Perm(nLinks)
		nHops := 1 + r.Intn(4)
		in.Pairs = append(in.Pairs, pair{
			Links:   append([]int(nil), perm[:nHops]...),
			Utility: MustSRE(math.Pow(10, -6+3*r.Float64())),
		})
	}
	return in.problem()
}

// TestSolverMatchesSolve: the compiled CSR path must reproduce the
// one-shot Solve bit for bit — same iterates, same certificates.
func TestSolverMatchesSolve(t *testing.T) {
	for _, exact := range []bool{false, true} {
		p := wsRandomProblem(99, 60, 40, exact)
		want, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ { // reuse must not drift
			got, err := s.Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("exact=%v trial %d: Solver.Solve differs from Solve", exact, trial)
			}
		}
	}
}

// TestSolverWithFracsMatchesSolve covers the ECMP fraction path of the
// compiled incidence.
func TestSolverWithFracsMatchesSolve(t *testing.T) {
	p := instance{
		Loads:  []float64{5000, 8000, 12000},
		Budget: 20,
		Pairs: []pair{
			{Links: []int{0, 1}, Fracs: []float64{0.5, 0.5}, Utility: MustSRE(0.002)},
			{Links: []int{1, 2}, Fracs: []float64{0.25, 0.75}, Utility: MustSRE(0.001)},
			{Links: []int{2}, Utility: MustSRE(0.0005)},
		},
	}.problem()
	want, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fractional-path Solver.Solve differs from Solve")
	}
}

// TestSolveIntoZeroAllocs is the steady-state allocation contract: a
// Solver reusing one Solution must not allocate at all.
func TestSolveIntoZeroAllocs(t *testing.T) {
	p := wsRandomProblem(7, 40, 30, false)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	var sol Solution
	if err := s.SolveInto(&sol, Options{}); err != nil { // warm the slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.SolveInto(&sol, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SolveInto allocates %v objects/op, want 0", allocs)
	}
}

// TestSolverSetWeights: weighted solves through SetWeights must match
// one-shot solves of an equivalently weighted Problem, and must leave
// the Solver's Problem untouched.
func TestSolverSetWeights(t *testing.T) {
	p := wsRandomProblem(13, 30, 20, false)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	weights := make([]float64, p.NumPairs())
	for k := range weights {
		weights[k] = 0.25 + 2*r.Float64()
	}
	if err := s.SetWeights(weights); err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	weighted := *p
	weighted.Weights = weights
	want, err := Solve(&weighted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rates, want.Rates) || got.Objective != want.Objective {
		t.Fatal("SetWeights solve differs from weighted-Problem solve")
	}
	if p.Weights != nil {
		t.Fatal("SetWeights mutated the caller's Problem")
	}
	// Resetting restores the unweighted optimum.
	if err := s.SetWeights(nil); err != nil {
		t.Fatal(err)
	}
	reset, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reset, plain) {
		t.Fatal("SetWeights(nil) did not restore the problem weights")
	}
	if err := s.SetWeights(weights[:3]); err == nil {
		t.Fatal("short weight vector accepted")
	}
}

// TestSolverSetUtilities: re-parameterized utilities solve exactly like
// a fresh compile with them, and never reach the caller's Problem.
func TestSolverSetUtilities(t *testing.T) {
	p := wsRandomProblem(17, 30, 20, false)
	orig := slices.Clone(p.Utilities)
	s := compiled(t, p)
	us := make([]Utility, p.NumPairs())
	for k := range us {
		us[k] = MustSRE(0.001 * float64(k+1))
	}
	if err := s.SetUtilities(us); err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Utilities, orig) {
		t.Fatal("SetUtilities mutated the caller's Problem")
	}
	q := *p
	q.Utilities = us
	want, err := Solve(&q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SetUtilities solve differs from a fresh compile")
	}
}

// TestSolverRejectsInvalid: validation happens once, at compile time.
func TestSolverRejectsInvalid(t *testing.T) {
	p := instance{
		Loads:  []float64{1000},
		Budget: 5,
		Pairs:  []pair{{Links: []int{0, 0}, Utility: MustSRE(0.002)}},
	}.problem()
	if _, err := NewSolver(p); err == nil {
		t.Fatal("duplicate link accepted")
	}
	p.Start[1], p.Links = 1, []int32{0}
	if _, err := NewSolver(p); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

// TestSolverSolutionIndependence: Solver.Solve results must stay valid
// after further solves (fresh allocations, not views of the workspace).
func TestSolverSolutionIndependence(t *testing.T) {
	p := wsRandomProblem(21, 25, 15, false)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), a.Rates...)
	if err := s.SetWeights([]float64{}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := s.Solve(Options{MaxIter: 3}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rates, snapshot) {
		t.Fatal("earlier Solution mutated by a later solve")
	}
}
