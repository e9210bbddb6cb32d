package control

import (
	"context"
	"errors"
	"testing"
	"time"

	"netsamp/internal/core"
	"netsamp/internal/faults"
	"netsamp/internal/plan"
	"netsamp/internal/topology"
)

func TestNewResilienceValidation(t *testing.T) {
	if _, err := New(Options{Budget: 1, ReviveAfter: -1}); err == nil {
		t.Fatal("negative revive hysteresis accepted")
	}
	if _, err := New(Options{Budget: 1, SolveTimeout: -time.Second}); err == nil {
		t.Fatal("negative solve timeout accepted")
	}
}

func TestStepResilientFallbackOnSolverFailure(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	base := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv}
	d0, err := c.StepResilient(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Degraded {
		t.Fatal("healthy interval marked degraded")
	}
	in := base
	in.FailSolve = true
	d1, err := c.StepResilient(context.Background(), in)
	if err != nil {
		t.Fatalf("solver failure not absorbed: %v", err)
	}
	if !d1.Degraded || d1.Solution != nil {
		t.Fatalf("fallback decision = %+v", d1)
	}
	// The fallback redeploys the previous plan verbatim (same survivors,
	// same loads).
	if len(d1.Plan) != len(d0.Plan) {
		t.Fatalf("fallback plan size %d != %d", len(d1.Plan), len(d0.Plan))
	}
	for lid, p := range d0.Plan {
		if d1.Plan[lid] != p {
			t.Fatalf("fallback rate diverged on link %d", lid)
		}
	}
	if c.Fallbacks() != 1 || c.Steps() != 2 {
		t.Fatalf("fallbacks=%d steps=%d", c.Fallbacks(), c.Steps())
	}
	// Recovery: the next healthy interval solves normally again.
	d2, err := c.StepResilient(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Degraded || d2.Solution == nil {
		t.Fatalf("controller stuck degraded: %+v", d2)
	}
}

func TestStepResilientNoFallbackOnFirstStep(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.StepResilient(context.Background(), StepInput{
		Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv,
		FailSolve: true,
	})
	if !errors.Is(err, ErrNoFallback) {
		t.Fatalf("want ErrNoFallback, got %v", err)
	}
}

func TestStepResilientSolveTimeout(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{
		Budget:       core.BudgetPerInterval(100000, 300),
		SolveTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv}
	if _, err := c.StepResilient(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	in := base
	in.Delay = time.Second // models a solver stuck far past its deadline
	d, err := c.StepResilient(context.Background(), in)
	if err != nil {
		t.Fatalf("overrun not absorbed: %v", err)
	}
	if !d.Degraded {
		t.Fatal("overrun interval not degraded")
	}
}

func TestStepResilientParentCancellationWins(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	base := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv}
	if _, err := c.StepResilient(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	// A caller deadline expiring mid-step must surface as the context
	// error, never be papered over by a fallback plan.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	in := base
	in.Delay = time.Second
	if _, err := c.StepResilient(ctx, in); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestStepResilientReviveHysteresis: a monitor that crashed rejoins the
// optimization only after ReviveAfter consecutive healthy intervals.
func TestStepResilientReviveHysteresis(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300), ReviveAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv}
	d0, err := c.StepResilient(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a victim whose loss leaves every pair covered: probation must
	// not be overridden by the coverage rule for this test.
	cand := make(map[topology.LinkID]bool, len(s.MonitorLinks))
	for _, lid := range s.MonitorLinks {
		cand[lid] = true
	}
	redundant := func(victim topology.LinkID) bool {
		for _, row := range s.Matrix.Rows {
			onPath, covered := false, false
			for _, lid := range row {
				if lid == victim {
					onPath = true
				} else if cand[lid] {
					covered = true
				}
			}
			if onPath && !covered {
				return false
			}
		}
		return true
	}
	var victim topology.LinkID = -1
	for lid := range d0.Plan {
		if redundant(lid) {
			victim = lid
			break
		}
	}
	if victim < 0 {
		t.Skip("no redundant monitor in this scenario")
	}
	excludedHas := func(d *Decision) bool {
		for _, lid := range d.Excluded {
			if lid == victim {
				return true
			}
		}
		return false
	}
	in := base
	in.Down = []topology.LinkID{victim}
	d1, err := c.StepResilient(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !excludedHas(d1) {
		t.Fatal("down monitor not excluded")
	}
	if _, ok := d1.Plan[victim]; ok {
		t.Fatal("down monitor deployed")
	}
	// Two healthy intervals of probation, then readmission.
	for i := 0; i < 2; i++ {
		d, err := c.StepResilient(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		if !excludedHas(d) {
			t.Fatalf("probation interval %d readmitted the monitor early", i)
		}
	}
	d4, err := c.StepResilient(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if excludedHas(d4) {
		t.Fatal("monitor still excluded after serving its probation")
	}
}

// TestStepResilientProbationYieldsToCoverage: a healthy monitor still on
// probation is readmitted early when an OD pair would otherwise have no
// eligible link on its path.
func TestStepResilientProbationYieldsToCoverage(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300), ReviveAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv}
	if _, err := c.StepResilient(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	// Find a monitor that is the sole candidate on some pair's path.
	cand := make(map[topology.LinkID]bool, len(s.MonitorLinks))
	for _, lid := range s.MonitorLinks {
		cand[lid] = true
	}
	var sole topology.LinkID = -1
	for _, row := range s.Matrix.Rows {
		var onPath []topology.LinkID
		for _, lid := range row {
			if cand[lid] {
				onPath = append(onPath, lid)
			}
		}
		if len(onPath) == 1 {
			sole = onPath[0]
			break
		}
	}
	if sole < 0 {
		t.Skip("every pair has redundant monitor coverage in this scenario")
	}
	in := base
	in.Down = []topology.LinkID{sole}
	d1, err := c.StepResilient(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Uncovered == 0 {
		t.Fatal("sole monitor down but no pair uncovered")
	}
	// Next interval the monitor is healthy again. Its 5-interval probation
	// must yield immediately: the pair is otherwise unmeasurable.
	d2, err := c.StepResilient(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range d2.Excluded {
		if lid == sole {
			t.Fatal("coverage-critical monitor held in probation")
		}
	}
	if d2.Uncovered != 0 {
		t.Fatalf("pairs still uncovered after readmission: %d", d2.Uncovered)
	}
}

func TestStepResilientAllDown(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.StepResilient(context.Background(), StepInput{
		Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv,
		Down: s.MonitorLinks,
	})
	if err == nil {
		t.Fatal("step with every monitor down accepted")
	}
}

// TestFallbackRespectsBudget is the robustness regression test: under
// seed-driven mid-interval monitor crashes AND forced solver failures,
// every deployed fallback plan must satisfy Σ p_i·U_i ≤ θ against the
// loads the controller planned with — even as loads grow, which forces
// the rescaling path.
func TestFallbackRespectsBudget(t *testing.T) {
	s, inv := setup(t)
	budget := core.BudgetPerInterval(100000, 300)
	c, err := New(Options{Budget: budget, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := faults.NewPlan(faults.Config{Seed: 11, MonitorCrash: 0.15, MeanOutage: 2})
	if err != nil {
		t.Fatal(err)
	}
	loads := append([]float64(nil), s.Loads...)
	fallbacks := 0
	for tick := 0; tick < 12; tick++ {
		in := StepInput{
			Matrix: s.Matrix, Loads: loads, Candidates: s.MonitorLinks, InvSizes: inv,
			FailSolve: tick > 0, // every re-optimization after the first fails
		}
		if tick > 0 { // interval 0 bootstraps a healthy plan; crashes follow
			in.Down = fp.DownSet(tick, s.MonitorLinks)
		}
		d, err := c.StepResilient(context.Background(), in)
		if err != nil {
			t.Fatalf("interval %d: %v", tick, err)
		}
		if tick > 0 {
			if !d.Degraded {
				t.Fatalf("interval %d: forced failure not degraded", tick)
			}
			fallbacks++
			// The budget constraint must hold on the deployed fallback.
			if spend := plan.SampledRate(d.Plan, loads); spend > budget*(1+1e-9) {
				t.Fatalf("interval %d: fallback overspends: %v > %v", tick, spend, budget)
			}
			// No dead monitor may carry sampling load.
			for _, lid := range in.Down {
				if _, ok := d.Plan[lid]; ok {
					t.Fatalf("interval %d: dead monitor %d deployed", tick, lid)
				}
			}
		}
		// Load growth: 12% per interval compounds past the original
		// plan's headroom, so the rescale path must engage.
		for i := range loads {
			loads[i] *= 1.12
		}
	}
	if fallbacks != 11 || c.Fallbacks() != 11 {
		t.Fatalf("fallbacks = %d / %d", fallbacks, c.Fallbacks())
	}
}

// TestHeldOutageKeepsPlanCacheWarm: while the same monitor stays down
// and leaves a pair uncovered, the compiled-plan cache must stop missing
// once every set the controller solves on has been seen (the filtered
// matrix is handed back, not rebuilt): one compile without hysteresis,
// a second for the retained set — which first exists at step 1 — with
// it. And reusing the matrix must not move a bit: each decision equals
// that of a controller restored from the previous step's state, whose
// cache and memo are cold.
func TestHeldOutageKeepsPlanCacheWarm(t *testing.T) {
	s, inv := setup(t)
	cand := make(map[topology.LinkID]bool, len(s.MonitorLinks))
	for _, lid := range s.MonitorLinks {
		cand[lid] = true
	}
	sole := topology.LinkID(-1)
	for _, row := range s.Matrix.Rows {
		var on []topology.LinkID
		for _, lid := range row {
			if cand[lid] {
				on = append(on, lid)
			}
		}
		if len(on) == 1 {
			sole = on[0]
			break
		}
	}
	if sole < 0 {
		t.Fatal("scenario has no pair monitored by a single link")
	}
	in := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv, Down: []topology.LinkID{sole}}
	for _, gain := range []float64{0, 0.01} {
		opts := Options{Budget: core.BudgetPerInterval(100000, 300), SwitchGain: gain}
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 // compiled plans: the eligible set's ...
		if gain > 0 {
			want = 2 // ... and the retained set's
		}
		for step := 0; step < 5; step++ {
			cold, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.Restore(c.Snapshot()); err != nil {
				t.Fatal(err)
			}
			ref, err := cold.StepResilient(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.StepResilient(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if got.Uncovered == 0 {
				t.Fatalf("gain %v step %d: outage on link %d uncovered no pair", gain, step, sole)
			}
			if !sameDecision(got, ref) {
				t.Fatalf("gain %v step %d: decision differs from a cold-cache controller's", gain, step)
			}
			if _, misses := c.cache.Stats(); misses > want {
				t.Fatalf("gain %v step %d: %d plan-cache misses, want %d for the whole outage", gain, step, misses, want)
			}
		}
		if n := c.cache.Len(); n != want {
			t.Fatalf("gain %v: cache holds %d compiled plans after a held outage, want %d", gain, n, want)
		}
	}
}
