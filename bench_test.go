package netsamp_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md section 4 for the experiment index), plus
// ablation benchmarks for the design choices the solver makes
// (preconditioning, Polak-Ribière blending, Newton line search, the
// effective-rate approximation (7) versus the exact model (1)).
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"sync"
	"testing"

	"netsamp/internal/baseline"
	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/eval"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

var (
	scenarioOnce sync.Once
	scenarioVal  *geant.Scenario
)

// benchScenario returns a cached GEANT scenario (construction cost is
// excluded from every benchmark).
func benchScenario(b *testing.B) *geant.Scenario {
	b.Helper()
	scenarioOnce.Do(func() { scenarioVal = geant.MustBuild(1) })
	return scenarioVal
}

func benchProblem(b *testing.B, s *geant.Scenario, model core.RateModel) *core.Problem {
	b.Helper()
	prob, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: s.UtilityParams(eval.Interval),
		Budget:       core.BudgetPerInterval(100000, eval.Interval),
		Model:        model,
	})
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// BenchmarkFigure1Utility regenerates the Figure 1 utility curves.
func BenchmarkFigure1Utility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure1(101)
		if len(r.Points) != 101 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkTable1Optimization solves the Table I instance (the JANET
// task at θ = 100,000 packets per 5-minute interval) through the
// one-shot path: every call re-validates, re-compiles and allocates.
func BenchmarkTable1Optimization(b *testing.B) {
	prob := benchProblem(b, benchScenario(b), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(prob, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Stats.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkSolveReuse solves the same instance through a compiled
// Solver reusing one Solution — the steady state of a controller
// re-optimizing every interval. Steady-state iterations allocate
// nothing (pinned by TestSolveIntoZeroAllocs).
func BenchmarkSolveReuse(b *testing.B) {
	prob := benchProblem(b, benchScenario(b), nil)
	s, err := core.NewSolver(prob)
	if err != nil {
		b.Fatal(err)
	}
	var sol core.Solution
	if err := s.SolveInto(&sol, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(&sol, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if !sol.Stats.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkTable1WithSimulation regenerates the full Table I including
// the 20 sampling experiments per OD pair.
func BenchmarkTable1WithSimulation(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table1(s, 100000, 20, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Sweep regenerates a Figure 2 sweep (optimal vs
// UK-links-only across the θ range, 5 sampling trials per point) on a
// single worker — the sequential baseline for BenchmarkFigure2Parallel.
func BenchmarkFigure2Sweep(b *testing.B) {
	s := benchScenario(b)
	thetas := eval.DefaultThetas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure2(context.Background(), s, thetas, 5, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Parallel runs the same sweep on the engine's full
// worker pool (one worker per CPU). The result is byte-identical to the
// sequential run; only the wall-clock changes.
func BenchmarkFigure2Parallel(b *testing.B) {
	s := benchScenario(b)
	thetas := eval.DefaultThetas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure2(context.Background(), s, thetas, 5, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergenceStudy runs the Section IV-D randomized-instance
// study (20 instances per iteration) on a single worker — the sequential
// baseline for BenchmarkConvergenceStudyParallel.
func BenchmarkConvergenceStudy(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ConvergenceStudy(context.Background(), s, 20, 11, core.Options{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergenceStudyParallel runs the same study on the engine's
// full worker pool.
func BenchmarkConvergenceStudyParallel(b *testing.B) {
	s := benchScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ConvergenceStudy(context.Background(), s, 20, 11, core.Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessLinkComparison runs the Section V-C capacity
// comparison.
func BenchmarkAccessLinkComparison(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AccessLinkComparison(s, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPhaseGreedyBaseline runs the decoupled placement-then-
// rates heuristic for comparison with the joint optimization.
func BenchmarkTwoPhaseGreedyBaseline(b *testing.B) {
	s := benchScenario(b)
	budget := core.BudgetPerInterval(100000, eval.Interval)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TwoPhaseGreedy(s.Matrix, s.Loads, s.MonitorLinks, s.Rates, budget, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: solver design choices --------------------------------

func benchAblation(b *testing.B, opt core.Options) {
	prob := benchProblem(b, benchScenario(b), nil)
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(prob, opt)
		if err != nil {
			b.Fatal(err)
		}
		iters += sol.Stats.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
}

// BenchmarkAblationFullSolver is the reference configuration.
func BenchmarkAblationFullSolver(b *testing.B) {
	benchAblation(b, core.Options{})
}

// BenchmarkAblationNoPreconditioner disables the 1/U² metric (the
// paper's plain gradient projection; zig-zags on skewed loads).
func BenchmarkAblationNoPreconditioner(b *testing.B) {
	benchAblation(b, core.Options{DisablePreconditioner: true})
}

// BenchmarkAblationNoPolakRibiere disables conjugate blending.
func BenchmarkAblationNoPolakRibiere(b *testing.B) {
	benchAblation(b, core.Options{DisablePolakRibiere: true})
}

// BenchmarkAblationBisectionLineSearch replaces Newton's method with
// bisection in the one-dimensional search.
func BenchmarkAblationBisectionLineSearch(b *testing.B) {
	benchAblation(b, core.Options{DisableNewton: true})
}

// BenchmarkAblationNoSecondOrder disables the Newton-KKT step on the
// free subspace (pure first-order projected search, the paper's method;
// an order of magnitude more iterations near the optimum).
func BenchmarkAblationNoSecondOrder(b *testing.B) {
	benchAblation(b, core.Options{DisableSecondOrder: true})
}

// BenchmarkAblationExactRateModel solves with the exact effective-rate
// model (1) instead of approximation (7).
func BenchmarkAblationExactRateModel(b *testing.B) {
	prob := benchProblem(b, benchScenario(b), core.ModelIndependentExact)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(prob, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoordinatedModel solves under the coordinated
// (cSamp-style) rate model — bitwise the linear trajectory — and
// reports the mean per-pair coverage the coordinated deployment
// recovers over independent sampling at the same per-link rates.
func BenchmarkAblationCoordinatedModel(b *testing.B) {
	s := benchScenario(b)
	prob := benchProblem(b, s, core.ModelCoordinated)
	var sol *core.Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sol, err = core.Solve(prob, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rates := plan.RatesByLink(sol, s.MonitorLinks)
	indep := plan.EffectiveRates(s.Matrix, rates, core.ModelIndependentExact)
	coord := plan.EffectiveRates(s.Matrix, rates, core.ModelCoordinated)
	gain := 0.0
	for k := range indep {
		gain += coord[k] - indep[k]
	}
	b.ReportMetric(gain/float64(len(indep)), "coord-gain")
}

// BenchmarkDynamicStudy runs the static-vs-reoptimized study (6
// intervals per iteration).
func BenchmarkDynamicStudy(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.DynamicStudy(context.Background(), s, 6, 100000, 21, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionStudy runs the anomaly-detection placement.
func BenchmarkDetectionStudy(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.DetectionStudy(context.Background(), s, 100000, 500, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxMinExact runs the certified LP-bisection max-min solver
// on the Table I instance.
func BenchmarkMaxMinExact(b *testing.B) {
	prob := benchProblem(b, benchScenario(b), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveMaxMinExact(prob, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTMStudy runs the traffic-matrix estimation comparison
// (gravity / tomogravity / sampled).
func BenchmarkTMStudy(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.TMStudy(context.Background(), s, 100000, 5, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Warm-start continuation -----------------------------------------
//
// The pairs below measure the same work through the one-shot path
// (Build + Solve per instance, cold waterfilling start) and the
// continuation path (Compile once, Retune + WarmStart per instance).
// Both report the total solver iterations per op, which is where the
// warm start earns its speedup.

// figure2SolveSequence enumerates the Figure 2 instance family: both
// candidate-set variants across the θ grid, each variant's grid ordered
// top-down (the direction the continuation chains in Figure2Ctx run:
// shrinking the budget rescales the previous optimum without disturbing
// its active set). The cold benchmark solves the same set; its order is
// irrelevant.
func figure2SolveSequence(s *geant.Scenario) []plan.Input {
	inv := s.UtilityParams(eval.Interval)
	thetas := eval.DefaultThetas()
	var seq []plan.Input
	for _, cands := range [][]topology.LinkID{s.MonitorLinks, s.UKLinks} {
		for i := len(thetas) - 1; i >= 0; i-- {
			seq = append(seq, plan.Input{
				Matrix:       s.Matrix,
				Loads:        s.Loads,
				Candidates:   cands,
				InvMeanSizes: inv,
				Budget:       core.BudgetPerInterval(thetas[i], eval.Interval),
			})
		}
	}
	return seq
}

// BenchmarkFigure2ColdSolves solves the Figure 2 θ-sweep the pre-
// continuation way: every grid point rebuilds its problem and starts
// the solver from the cold waterfilling point.
func BenchmarkFigure2ColdSolves(b *testing.B) {
	seq := figure2SolveSequence(benchScenario(b))
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		for _, in := range seq {
			prob, err := plan.Build(in)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := core.Solve(prob, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			iters += sol.Stats.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "solver-iters/op")
}

// BenchmarkFigure2WarmStart solves the same sweep as continuation
// chains: one compiled workspace per candidate-set variant, budget
// re-tuned between grid points, every solve warm-started from the
// previous θ's optimum.
func BenchmarkFigure2WarmStart(b *testing.B) {
	s := benchScenario(b)
	seq := figure2SolveSequence(s)
	nThetas := len(eval.DefaultThetas())
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		var (
			comp *plan.Compiled
			sol  core.Solution
			warm []float64
		)
		for j, in := range seq {
			var err error
			if j%nThetas == 0 { // new candidate-set variant: new chain
				if comp, err = plan.Compile(in); err != nil {
					b.Fatal(err)
				}
			} else if err = comp.Retune(in); err != nil {
				b.Fatal(err)
			}
			opt := core.Options{}
			if j%nThetas != 0 {
				if warm, err = comp.Solver().WarmStart(&sol, warm); err != nil {
					b.Fatal(err)
				}
				opt.Initial = warm
			}
			if err := comp.Solver().SolveInto(&sol, opt); err != nil {
				b.Fatal(err)
			}
			iters += sol.Stats.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "solver-iters/op")
}

// dynamicLoadSchedule jitters the scenario loads over `n` successive
// intervals (±10%, deterministic), the per-interval re-optimization
// input of the dynamic study and the controller.
func dynamicLoadSchedule(s *geant.Scenario, n int) [][]float64 {
	r := rng.New(97)
	out := make([][]float64, n)
	for t := range out {
		loads := make([]float64, len(s.Loads))
		for i, u := range s.Loads {
			loads[i] = u * (0.9 + 0.2*r.Float64())
		}
		out[t] = loads
	}
	return out
}

const benchIntervals = 8

// BenchmarkDynamicIntervalCold re-optimizes 8 successive intervals the
// pre-continuation way: rebuild and cold-solve each interval.
func BenchmarkDynamicIntervalCold(b *testing.B) {
	s := benchScenario(b)
	schedule := dynamicLoadSchedule(s, benchIntervals)
	inv := s.UtilityParams(eval.Interval)
	budget := core.BudgetPerInterval(100000, eval.Interval)
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		for _, loads := range schedule {
			prob, err := plan.Build(plan.Input{
				Matrix:       s.Matrix,
				Loads:        loads,
				Candidates:   s.MonitorLinks,
				InvMeanSizes: inv,
				Budget:       budget,
			})
			if err != nil {
				b.Fatal(err)
			}
			sol, err := core.Solve(prob, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			iters += sol.Stats.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "solver-iters/op")
}

// BenchmarkDynamicIntervalWarm re-optimizes the same 8 intervals as one
// continuation chain: the compiled workspace re-tunes to each interval's
// loads and warm-starts from the previous interval's plan.
func BenchmarkDynamicIntervalWarm(b *testing.B) {
	s := benchScenario(b)
	schedule := dynamicLoadSchedule(s, benchIntervals)
	inv := s.UtilityParams(eval.Interval)
	budget := core.BudgetPerInterval(100000, eval.Interval)
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		var (
			comp *plan.Compiled
			sol  core.Solution
			warm []float64
		)
		for t, loads := range schedule {
			in := plan.Input{
				Matrix:       s.Matrix,
				Loads:        loads,
				Candidates:   s.MonitorLinks,
				InvMeanSizes: inv,
				Budget:       budget,
			}
			var err error
			if comp == nil {
				if comp, err = plan.Compile(in); err != nil {
					b.Fatal(err)
				}
			} else if err = comp.Retune(in); err != nil {
				b.Fatal(err)
			}
			opt := core.Options{}
			if t > 0 {
				if warm, err = comp.Solver().WarmStart(&sol, warm); err != nil {
					b.Fatal(err)
				}
				opt.Initial = warm
			}
			if err := comp.Solver().SolveInto(&sol, opt); err != nil {
				b.Fatal(err)
			}
			iters += sol.Stats.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "solver-iters/op")
}

// BenchmarkSolveRobust solves the Table I instance against the upper
// edge of a ±20% load confidence envelope — the per-interval price of
// the pessimistic posture relative to BenchmarkTable1Optimization.
func BenchmarkSolveRobust(b *testing.B) {
	prob := benchProblem(b, benchScenario(b), nil)
	lower := make([]float64, len(prob.Loads))
	upper := make([]float64, len(prob.Loads))
	for i, u := range prob.Loads {
		lower[i] = 0.8 * u
		upper[i] = 1.2 * u
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSolver(prob)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := s.SolveRobust(core.RobustPessimistic, lower, upper, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Stats.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkRobustControllerSteps drives an uncertainty-aware controller
// through 8 successive intervals: load tracking, the robust envelope
// solve and the exploration reserve, per interval.
func BenchmarkRobustControllerSteps(b *testing.B) {
	s := benchScenario(b)
	schedule := dynamicLoadSchedule(s, benchIntervals)
	inv := s.UtilityParams(eval.Interval)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl, err := control.New(control.Options{
			Budget:      core.BudgetPerInterval(100000, eval.Interval),
			SmoothAlpha: 0.5,
			Robust: control.RobustOptions{
				Mode:            core.RobustPessimistic,
				ExplorationFrac: 0.1,
				WidenFactor:     1.3,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, loads := range schedule {
			if _, err := ctl.StepResilient(context.Background(), control.StepInput{
				Matrix:     s.Matrix,
				Loads:      loads,
				Candidates: s.MonitorLinks,
				InvSizes:   inv,
				Workers:    1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
