package control

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/geant"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

func setup(t *testing.T) (*geant.Scenario, []float64) {
	t.Helper()
	s := geant.MustBuild(1)
	return s, s.UtilityParams(300)
}

// step runs one plain interval: the four observations every interval
// has, default workers, nothing down and nothing injected.
func step(c *Controller, m *routing.Matrix, loads []float64, cands []topology.LinkID, inv []float64) (*Decision, error) {
	return c.StepResilient(context.Background(), StepInput{Matrix: m, Loads: loads, Candidates: cands, InvSizes: inv})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Budget: 0}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := New(Options{Budget: 1, SmoothAlpha: 2}); err == nil {
		t.Fatal("bad alpha accepted")
	}
	if _, err := New(Options{Budget: 1, SwitchGain: -1}); err == nil {
		t.Fatal("negative gain accepted")
	}
}

func TestFirstStepAdopts(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SetChanged {
		t.Fatal("first step must adopt a set")
	}
	if len(d.Plan) == 0 || len(c.active) != len(d.Plan) {
		t.Fatalf("plan/active mismatch: %d vs %d", len(d.Plan), len(c.active))
	}
	if c.Steps() != 1 {
		t.Fatalf("steps = %d", c.Steps())
	}
}

func TestHysteresisKeepsSetUnderNoise(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{
		Budget:      core.BudgetPerInterval(100000, 300),
		SwitchGain:  0.01,
		SmoothAlpha: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv); err != nil {
		t.Fatal(err)
	}
	first := c.active
	// Ten noisy intervals: ±5% load jitter must not churn the set.
	r := rng.New(9)
	for i := 0; i < 10; i++ {
		loads := make([]float64, len(s.Loads))
		for j, u := range s.Loads {
			loads[j] = u * (0.95 + 0.1*r.Float64())
		}
		d, err := step(c, s.Matrix, loads, s.MonitorLinks, inv)
		if err != nil {
			t.Fatal(err)
		}
		if d.SetChanged {
			t.Fatalf("interval %d: set churned under noise (gain %v)", i, d.Gain)
		}
		// Rates are still re-tuned: budget holds on smoothed loads.
		if len(d.Plan) == 0 {
			t.Fatal("empty plan")
		}
	}
	if !sameSet(first, c.active) {
		t.Fatal("active set drifted")
	}
}

func TestSwitchOnStructuralChange(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{
		Budget:     core.BudgetPerInterval(100000, 300),
		SwitchGain: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv); err != nil {
		t.Fatal(err)
	}
	// Fail FR-CH: routing changes, pair coverage moves — the controller
	// must accept the new matrix and keep every pair measurable.
	frch, _ := s.Graph.FindLink(s.Graph.MustNode("FR"), s.Graph.MustNode("CH"))
	chfr, _ := s.Graph.FindLink(s.Graph.MustNode("CH"), s.Graph.MustNode("FR"))
	s.Graph.SetDown(frch, true)
	s.Graph.SetDown(chfr, true)
	defer func() {
		s.Graph.SetDown(frch, false)
		s.Graph.SetDown(chfr, false)
	}()
	tbl := routing.ComputeTable(s.Graph)
	matrix, err := routing.BuildMatrix(tbl, s.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	var candidates []topology.LinkID
	for _, lid := range matrix.LinkSet() {
		if !s.Graph.Link(lid).Access {
			candidates = append(candidates, lid)
		}
	}
	d, err := step(c, matrix, s.Loads, candidates, inv)
	if err != nil {
		t.Fatal(err)
	}
	for k, rho := range d.Solution.Rho {
		if rho <= 0 {
			t.Fatalf("pair %d unmonitored after failure", k)
		}
	}
}

func TestNoHysteresisAlwaysAdoptsOptimum(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	// Identical conditions: the second step adopts the same set (no
	// change) and the same objective.
	if d2.SetChanged {
		t.Fatal("set changed under identical conditions")
	}
	if math.Abs(d1.Solution.Objective-d2.Solution.Objective) > 1e-9 {
		t.Fatalf("objective drifted: %v vs %v", d1.Solution.Objective, d2.Solution.Objective)
	}
}

func TestEWMASmoothing(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{
		Budget:      core.BudgetPerInterval(100000, 300),
		SmoothAlpha: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(c, s.Matrix, s.Loads, s.MonitorLinks, inv); err != nil {
		t.Fatal(err)
	}
	// A 10x load spike, heavily smoothed: effective loads move ~1.9x
	// only (after two EWMA steps at alpha 0.1 starting from the spike).
	spiked := make([]float64, len(s.Loads))
	for i, u := range s.Loads {
		spiked[i] = 10 * u
	}
	d, err := step(c, s.Matrix, spiked, s.MonitorLinks, inv)
	if err != nil {
		t.Fatal(err)
	}
	// The deployed plan spends the budget against the SMOOTHED loads;
	// against the spiked raw loads it would overspend by far less than
	// 10x thanks to smoothing.
	spent := 0.0
	for lid, p := range d.Plan {
		spent += p * spiked[lid]
	}
	budget := core.BudgetPerInterval(100000, 300)
	if spent < budget {
		t.Fatalf("spend %v below budget %v — smoothing inverted?", spent, budget)
	}
	if spent > 6*budget {
		t.Fatalf("spend %v: smoothing ineffective", spent)
	}
}

func sameSet(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSwitchWhenRetainedSetLosesCoverage: if the previously active set
// cannot cover a pair under new routing, the controller must switch
// regardless of hysteresis.
func TestSwitchWhenRetainedSetLosesCoverage(t *testing.T) {
	g := topology.New()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	ab, _ := g.AddDuplex(a, b, topology.OC48, 1)
	bc, _ := g.AddDuplex(b, c, topology.OC48, 1)
	ac, _ := g.AddDuplex(a, c, topology.OC48, 5)
	tbl := routing.ComputeTable(g)
	pairs := []routing.ODPair{{Name: "A->C", Src: a, Dst: c}}
	m1, err := routing.BuildMatrix(tbl, pairs)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumLinks())
	loads[ab], loads[bc], loads[ac] = 1000, 1000, 50
	for i := range loads {
		if loads[i] == 0 {
			loads[i] = 1
		}
	}
	ctl, err := New(Options{Budget: 5, SwitchGain: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Interval 0: path A->B->C; candidates are those two links.
	d0, err := step(ctl, m1, loads, []topology.LinkID{ab, bc}, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(d0.Plan) == 0 {
		t.Fatal("no initial plan")
	}
	// Interval 1: A->B fails; path becomes A->C directly. The old set
	// (ab/bc) covers nothing — the controller must switch to ac.
	g.SetDown(ab, true)
	tbl2 := routing.ComputeTable(g)
	m2, err := routing.BuildMatrix(tbl2, pairs)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := step(ctl, m2, loads, []topology.LinkID{ac}, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !d1.SetChanged {
		t.Fatal("controller kept a set that lost coverage")
	}
	if _, ok := d1.Plan[ac]; !ok {
		t.Fatalf("new plan misses the only viable link: %v", d1.Plan)
	}
}

func TestStepEmptyCandidates(t *testing.T) {
	s, inv := setup(t)
	ctl, err := New(Options{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(ctl, s.Matrix, s.Loads, nil, inv); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}

// TestStepWorkerCountDeterministic: the interval's full and retained
// solves run as concurrent engine jobs; the decisions must not depend on
// how many workers run them — the solves share no state and float work
// is aggregated deterministically.
func TestStepWorkerCountDeterministic(t *testing.T) {
	s, inv := setup(t)
	mk := func() *Controller {
		c, err := New(Options{
			Budget:      core.BudgetPerInterval(100000, 300),
			SwitchGain:  0.01,
			SmoothAlpha: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	r := rng.New(31)
	for i := 0; i < 6; i++ {
		loads := make([]float64, len(s.Loads))
		for j, u := range s.Loads {
			loads[j] = u * (0.9 + 0.2*r.Float64())
		}
		da, err := step(a, s.Matrix, loads, s.MonitorLinks, inv)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.StepResilient(context.Background(), StepInput{
			Matrix: s.Matrix, Loads: loads, Candidates: s.MonitorLinks, InvSizes: inv, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if da.SetChanged != db.SetChanged || da.Gain != db.Gain {
			t.Fatalf("interval %d: decision diverged: %+v vs %+v", i, da, db)
		}
		if !reflect.DeepEqual(da.Plan, db.Plan) {
			t.Fatalf("interval %d: plans diverged", i)
		}
		if !sameSet(a.active, b.active) {
			t.Fatalf("interval %d: active sets diverged", i)
		}
	}
}

// TestStepResilientCancelled: an already-cancelled context aborts the
// interval before any state moves.
func TestStepResilientCancelled(t *testing.T) {
	s, inv := setup(t)
	c, err := New(Options{Budget: core.BudgetPerInterval(100000, 300)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := StepInput{Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks, InvSizes: inv}
	if _, err := c.StepResilient(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if c.Steps() != 0 {
		t.Fatalf("aborted interval counted as step %d", c.Steps())
	}
}
