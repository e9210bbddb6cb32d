package control

import (
	"errors"
	"math"
	"testing"
	"time"

	"netsamp/internal/core"
	"netsamp/internal/plan"
)

// The deadline-aware approximation policy: when the deterministic cost
// model predicts the exact solve would overrun SolveTimeout, the
// interval is served by core.SolveApprox and the Decision records both
// the routing choice and the duality-gap certificate.

func TestApproxPolicyValidation(t *testing.T) {
	base := Options{Budget: 1}
	bad := base
	bad.Approx.ExactRate = math.NaN()
	if _, err := New(bad); err == nil {
		t.Fatal("NaN exact rate accepted")
	}
	bad = base
	bad.Approx.ExactRate = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative exact rate accepted")
	}
	bad = base
	bad.Approx.Enabled = true
	bad.Model = core.ModelIndependentExact
	_, err := New(bad)
	if err == nil {
		t.Fatal("approx policy accepted a non-additive model")
	}
	var ie *core.InputError
	if !errors.As(err, &ie) {
		t.Fatalf("refusal error %T is not *core.InputError", err)
	}
	if !errors.Is(err, core.ErrInvalidInput) {
		t.Fatal("refusal does not match core.ErrInvalidInput")
	}
	// Additive non-default models remain fine.
	ok := base
	ok.Approx.Enabled = true
	ok.Model = core.ModelCoordinated
	if _, err := New(ok); err != nil {
		t.Fatalf("approx policy rejected an additive model: %v", err)
	}
}

func TestDeadlinePolicyFallsBackToApprox(t *testing.T) {
	s, inv := setup(t)
	budget := core.BudgetPerInterval(100000, 300)
	// An absurdly low calibrated throughput makes the cost model predict
	// hours for GEANT, so the policy must route to SolveApprox.
	c, err := New(Options{
		Budget:       budget,
		SolveTimeout: time.Second,
		Approx:       ApproxPolicy{Enabled: true, ExactRate: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Approximated {
		t.Fatal("Decision.Approximated not set")
	}
	if d.Solution == nil || !d.Solution.Approx {
		t.Fatal("deployed solution is not the approximation")
	}
	if d.ApproxGap != d.Solution.GapBound {
		t.Fatalf("ApproxGap %v != Solution.GapBound %v", d.ApproxGap, d.Solution.GapBound)
	}
	if d.ApproxGap < 0 || math.IsNaN(d.ApproxGap) {
		t.Fatalf("gap certificate %v", d.ApproxGap)
	}
	if len(d.Plan) == 0 {
		t.Fatal("empty plan")
	}
	if spend := plan.SampledRate(d.Plan, s.Loads); spend > budget*(1+1e-9) {
		t.Fatalf("approximated interval overspends: %v > %v", spend, budget)
	}
	// The approximated plan should still be near-optimal: compare its
	// objective against the exact controller on identical inputs.
	exactC, err := New(Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := step(exactC, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Max(1, math.Abs(ed.Solution.Objective))
	if ed.Solution.Objective > d.Solution.Objective+d.ApproxGap+1e-7*scale {
		t.Fatalf("gap certificate unsound against exact controller: exact %v > approx %v + gap %v",
			ed.Solution.Objective, d.Solution.Objective, d.ApproxGap)
	}
}

func TestDeadlinePolicyPrefersExactWhenCheap(t *testing.T) {
	s, inv := setup(t)
	// A generous throughput prediction keeps GEANT far under the
	// timeout: the interval must be served exactly.
	c, err := New(Options{
		Budget:       core.BudgetPerInterval(100000, 300),
		SolveTimeout: time.Minute,
		Approx:       ApproxPolicy{Enabled: true, ExactRate: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	if d.Approximated || (d.Solution != nil && d.Solution.Approx) {
		t.Fatal("cheap solve was approximated")
	}
}

func TestDeadlinePolicyInertWithoutTimeout(t *testing.T) {
	s, inv := setup(t)
	// No SolveTimeout means no deadline to defend: the policy never
	// triggers, however pessimistic the cost model.
	c, err := New(Options{
		Budget: core.BudgetPerInterval(100000, 300),
		Approx: ApproxPolicy{Enabled: true, ExactRate: 1e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	if d.Approximated {
		t.Fatal("policy triggered without a SolveTimeout")
	}
}

func TestDeadlinePolicyRobustMode(t *testing.T) {
	s, inv := setup(t)
	budget := core.BudgetPerInterval(100000, 300)
	c, err := New(Options{
		Budget:       budget,
		SolveTimeout: time.Second,
		Approx:       ApproxPolicy{Enabled: true, ExactRate: 1e-3},
		Robust:       RobustOptions{Mode: core.RobustPessimistic},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.StepResilient(t.Context(), StepInput{
		Matrix:     s.Matrix,
		Loads:      s.Loads,
		Candidates: s.MonitorLinks,
		InvSizes:   inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Approximated || d.Solution == nil || !d.Solution.Approx {
		t.Fatal("robust interval not served by the approximation")
	}
	if spend := plan.SampledRate(d.Plan, s.Loads); spend > budget*(1+1e-9) {
		t.Fatalf("robust approximated interval overspends: %v > %v", spend, budget)
	}
}

func TestDeadlinePolicyDeterministic(t *testing.T) {
	s, inv := setup(t)
	run := func() *Decision {
		c, err := New(Options{
			Budget:       core.BudgetPerInterval(100000, 300),
			SolveTimeout: time.Second,
			Approx:       ApproxPolicy{Enabled: true, ExactRate: 1e-3},
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	if a.Solution.Objective != b.Solution.Objective || a.ApproxGap != b.ApproxGap {
		t.Fatalf("approximated interval not deterministic: obj %v/%v gap %v/%v",
			a.Solution.Objective, b.Solution.Objective, a.ApproxGap, b.ApproxGap)
	}
	for lid, p := range a.Plan {
		if b.Plan[lid] != p {
			t.Fatalf("plan rate for link %d differs across identical runs", lid)
		}
	}
}
