package eval

import (
	"fmt"
	"math"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// These tests pin the correctness side of the continuation machinery:
// the warm-started, retuned solves the studies now run must land on the
// same fixed point as a cold compile-and-solve of every instance —
// same objective within tolerance and the same active monitor set.

// activeSet returns which links a solution samples (the solver snaps
// inactive rates to exact zero, so > 0 is the set membership test).
func activeSet(sol *core.Solution) []bool {
	out := make([]bool, len(sol.Rates))
	for i, r := range sol.Rates {
		out[i] = r > 0
	}
	return out
}

func checkSameFixedPoint(t *testing.T, label string, warm, cold *core.Solution) {
	t.Helper()
	if !warm.Stats.Converged || !cold.Stats.Converged {
		t.Fatalf("%s: converged warm=%v cold=%v", label, warm.Stats.Converged, cold.Stats.Converged)
	}
	if diff := math.Abs(warm.Objective - cold.Objective); diff > 1e-5*math.Max(1, math.Abs(cold.Objective)) {
		t.Fatalf("%s: objectives differ by %v (warm %v, cold %v)", label, diff, warm.Objective, cold.Objective)
	}
	wa, ca := activeSet(warm), activeSet(cold)
	for i := range wa {
		if wa[i] != ca[i] {
			t.Fatalf("%s: active sets differ at link %d (warm rate %v, cold rate %v)",
				label, i, warm.Rates[i], cold.Rates[i])
		}
	}
}

// TestFigure2ContinuationMatchesCold walks the Figure 2 θ grid exactly
// as Figure2Ctx does — one compiled plan per candidate set, budget
// retuned between grid points, every solve warm-started from the
// neighbouring optimum in descending order — and checks each solution
// against a cold Build+Solve of the same instance.
func TestFigure2ContinuationMatchesCold(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	inv := s.UtilityParams(Interval)
	thetas := DefaultThetas()
	for variant, cands := range [][]topology.LinkID{s.MonitorLinks, s.UKLinks} {
		var (
			comp *plan.Compiled
			prev *core.Solution
			warm []float64
		)
		for i := len(thetas) - 1; i >= 0; i-- {
			in := plan.Input{
				Matrix:       s.Matrix,
				Loads:        s.Loads,
				Candidates:   cands,
				InvMeanSizes: inv,
				Budget:       core.BudgetPerInterval(thetas[i], Interval),
			}
			if comp == nil {
				comp, err = plan.Compile(in)
			} else {
				err = comp.Retune(in)
			}
			if err != nil {
				t.Fatalf("variant %d θ=%v: %v", variant, thetas[i], err)
			}
			opt := core.Options{}
			if prev != nil {
				if warm, err = comp.Solver().WarmStart(prev, warm); err != nil {
					t.Fatalf("variant %d θ=%v: %v", variant, thetas[i], err)
				}
				opt.Initial = warm
			}
			sol, err := comp.Solver().Solve(opt)
			if err != nil {
				t.Fatalf("variant %d θ=%v: %v", variant, thetas[i], err)
			}
			prob, err := plan.Build(in)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := core.Solve(prob, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkSameFixedPoint(t, fmt.Sprintf("variant %d θ=%v", variant, thetas[i]), sol, cold)
			prev = sol
		}
	}
}

// TestDynamicContinuationMatchesCold replays the dynamic study's
// per-interval chain — one plan.Cache, loads drifting every interval,
// each solve warm-started from the previous interval's optimum — and
// checks every interval against a cold solve.
func TestDynamicContinuationMatchesCold(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	inv := s.UtilityParams(Interval)
	budget := core.BudgetPerInterval(100000, Interval)
	r := rng.New(7)
	cache := plan.NewCache()
	var (
		prev *core.Solution
		warm []float64
	)
	loads := make([]float64, len(s.Loads))
	for interval := 0; interval < 10; interval++ {
		for i, u := range s.Loads {
			loads[i] = u * r.LogNormal(0, 0.15)
		}
		in := plan.Input{
			Matrix:       s.Matrix,
			Loads:        loads,
			Candidates:   s.MonitorLinks,
			InvMeanSizes: inv,
			Budget:       budget,
		}
		comp, err := cache.Get(in)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		opt := core.Options{}
		if prev != nil {
			if warm, err = comp.Solver().WarmStart(prev, warm); err != nil {
				t.Fatalf("interval %d: %v", interval, err)
			}
			opt.Initial = warm
		}
		sol, err := comp.Solver().Solve(opt)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		prob, err := plan.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Solve(prob, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkSameFixedPoint(t, fmt.Sprintf("interval %d", interval), sol, cold)
		prev = sol
	}
	if hits, misses := cache.Stats(); misses != 1 || hits != 9 {
		t.Fatalf("cache stats = (%d hits, %d misses), want (9, 1): identity should be stable across intervals", hits, misses)
	}
}

// TestSecondOrderMatchesFirstOrder: the Newton-accelerated solver and
// the pure first-order ablation must agree on the fixed point (the
// acceleration changes the path, not the destination).
func TestSecondOrderMatchesFirstOrder(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	inv := s.UtilityParams(Interval)
	for _, theta := range []float64{20000, 100000, 500000} {
		prob, err := plan.Build(plan.Input{
			Matrix:       s.Matrix,
			Loads:        s.Loads,
			Candidates:   s.MonitorLinks,
			InvMeanSizes: inv,
			Budget:       core.BudgetPerInterval(theta, Interval),
		})
		if err != nil {
			t.Fatal(err)
		}
		accel, err := core.Solve(prob, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := core.Solve(prob, core.Options{DisableSecondOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		checkSameFixedPoint(t, fmt.Sprintf("θ=%v", theta), accel, plain)
		if accel.Stats.Iterations > plain.Stats.Iterations {
			t.Fatalf("θ=%v: second order took more iterations (%d) than first order (%d)",
				theta, accel.Stats.Iterations, plain.Stats.Iterations)
		}
	}
}

// TestApproxGapSoundOnGEANTThetaGrid pins the Frank-Wolfe certificate
// on the paper's own scenario across the Figure 2 budget sweep: at
// every θ the exact optimum must lie within [approx, approx + gap].
func TestApproxGapSoundOnGEANTThetaGrid(t *testing.T) {
	s := geant.MustBuild(1)
	inv := s.UtilityParams(Interval)
	for _, theta := range DefaultThetas() {
		budget := core.BudgetPerInterval(theta, Interval)
		prob, err := plan.Build(plan.Input{
			Matrix:       s.Matrix,
			Loads:        s.Loads,
			Candidates:   s.MonitorLinks,
			InvMeanSizes: inv,
			Budget:       budget,
		})
		if err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
		exact, err := core.Solve(prob, core.Options{})
		if err != nil {
			t.Fatalf("θ=%v: exact: %v", theta, err)
		}
		solver, err := core.NewSolver(prob)
		if err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
		apx, err := solver.SolveApprox(core.ApproxOptions{})
		if err != nil {
			t.Fatalf("θ=%v: approx: %v", theta, err)
		}
		if !apx.Approx || apx.GapBound < 0 || math.IsNaN(apx.GapBound) {
			t.Fatalf("θ=%v: bad certificate: approx=%v gap=%v", theta, apx.Approx, apx.GapBound)
		}
		scale := math.Max(1, math.Abs(exact.Objective))
		if apx.Objective > exact.Objective+1e-7*scale {
			t.Errorf("θ=%v: approx objective %v beats exact %v", theta, apx.Objective, exact.Objective)
		}
		if exact.Objective > apx.Objective+apx.GapBound+1e-7*scale {
			t.Errorf("θ=%v: gap bound unsound: exact %v > approx %v + gap %v",
				theta, exact.Objective, apx.Objective, apx.GapBound)
		}
	}
}
