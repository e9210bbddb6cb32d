package plan

import (
	"errors"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/packet"
	"netsamp/internal/topology"
)

// TestBuildRejectsStrayMaxRates: a MaxRates entry for a link outside
// the candidate set is a typed input error, not a silent no-op — a cap
// on an unmonitorable link could never be enforced.
func TestBuildRejectsStrayMaxRates(t *testing.T) {
	g, m, loads, cands := fixture(t)
	// A link that exists in the graph but is not a candidate (a reverse
	// direction the pairs never traverse).
	var stray topology.LinkID = -1
	for lid := topology.LinkID(0); int(lid) < g.NumLinks(); lid++ {
		if lid != cands[0] && lid != cands[1] {
			stray = lid
			break
		}
	}
	if stray < 0 {
		t.Fatal("no stray link in fixture")
	}
	in := Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   cands,
		InvMeanSizes: []float64{0.002, 0.001},
		Budget:       10,
		MaxRates:     map[topology.LinkID]float64{stray: 0.02},
	}
	_, err := Build(in)
	if err == nil {
		t.Fatal("stray MaxRates entry accepted")
	}
	if !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("error not typed as invalid input: %v", err)
	}
	var ie *core.InputError
	if !errors.As(err, &ie) {
		t.Fatalf("error not an InputError: %v", err)
	}
}

// TestCacheNeverAliasesModels: compiled plans for the same matrix and
// candidates under different rate models must be distinct cache
// entries — sharing one would silently solve under the wrong model.
func TestCacheNeverAliasesModels(t *testing.T) {
	base := fixtureInput(t)
	cache := NewCache()
	var comps []*Compiled
	for _, m := range []core.RateModel{nil, core.ModelLinear, core.ModelIndependentExact, core.ModelCoordinated} {
		in := base
		in.Model = m
		c, err := cache.Get(in)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	// nil and explicit linear are the SAME identity; all others differ.
	if comps[0] != comps[1] {
		t.Fatal("nil and ModelLinear did not share a compiled plan")
	}
	if comps[0] == comps[2] || comps[0] == comps[3] || comps[2] == comps[3] {
		t.Fatal("distinct models aliased one compiled plan")
	}
}

// TestRetuneAfterModelSwitchMatchesFresh: switching the model forces a
// recompile, and the recompiled plan must solve bitwise-identically to
// a fresh compile of the same input.
func TestRetuneAfterModelSwitchMatchesFresh(t *testing.T) {
	base := fixtureInput(t)
	comp, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	coordIn := base
	coordIn.Model = core.ModelCoordinated
	if err := comp.Retune(coordIn); err == nil {
		t.Fatal("model switch accepted by Retune")
	}
	// The refused retune must not have perturbed the original workspace.
	got, err := comp.Solver().Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	freshBase, _ := Compile(base)
	want, err := freshBase.Solver().Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, got, want, "after refused model switch")

	// Recompiling under the new model equals a fresh compile bitwise.
	recompiled, err := Compile(coordIn)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(coordIn)
	if err != nil {
		t.Fatal(err)
	}
	a, err := recompiled.Solver().Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Solver().Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, a, b, "recompile vs fresh")
}

// TestCoordinateAssignments: the hash-range assignment must partition
// each measured pair's flow space across exactly its active monitors,
// with the coin min(1, Σ f·p).
func TestCoordinateAssignments(t *testing.T) {
	_, m, _, cands := fixture(t)
	rates := map[topology.LinkID]float64{cands[0]: 0.003, cands[1]: 0.001}
	c := Coordinate(m, rates)
	if len(c.Assignments) != 2 {
		t.Fatalf("%d assignments", len(c.Assignments))
	}
	// Pair 0 (A->C) crosses both links: two ranges partitioning the
	// space with widths proportional to the rates.
	a := c.Assignments[0]
	if len(a.Links) != 2 || len(a.Ranges) != 2 {
		t.Fatalf("pair 0 assignment: %+v", a)
	}
	if a.Coin != 0.004 {
		t.Fatalf("pair 0 coin = %v", a.Coin)
	}
	if a.Ranges[0].Lo != 0 || a.Ranges[1].Hi != ^uint64(0) || a.Ranges[1].Lo != a.Ranges[0].Hi+1 {
		t.Fatalf("pair 0 ranges do not partition: %+v", a.Ranges)
	}
	// Pair 1 (B->C) crosses one link: it owns the full space.
	b := c.Assignments[1]
	if len(b.Links) != 1 || b.Ranges[0] != (packet.HashRange{Lo: 0, Hi: ^uint64(0)}) {
		t.Fatalf("pair 1 assignment: %+v", b)
	}
	if b.Coin != 0.001 {
		t.Fatalf("pair 1 coin = %v", b.Coin)
	}

	// MonitorConfig inverts the view: cands[1] owns a range for both
	// pairs; cands[0] only for pair 0.
	ranges0, coins0 := c.MonitorConfig(cands[0])
	ranges1, coins1 := c.MonitorConfig(cands[1])
	if ranges0[1] != packet.EmptyHashRange || coins0[1] != 0 {
		t.Fatalf("monitor 0 should not own pair 1: %v %v", ranges0[1], coins0[1])
	}
	if ranges1[0].Empty() || coins1[0] != 0.004 || ranges1[1].Empty() || coins1[1] != 0.001 {
		t.Fatalf("monitor 1 config wrong: %v %v", ranges1, coins1)
	}
	// The two monitors' pair-0 ranges are exactly the assignment's.
	if ranges0[0] != a.Ranges[0] || ranges1[0] != a.Ranges[1] {
		t.Fatal("MonitorConfig does not match the assignment")
	}

	// Zero-rate monitors own nothing; a pair with no active monitor is
	// unmeasured (empty assignment, coin 0).
	c2 := Coordinate(m, map[topology.LinkID]float64{cands[0]: 0.01})
	if got := c2.Assignments[1]; len(got.Links) != 0 || got.Coin != 0 {
		t.Fatalf("unmeasured pair got an assignment: %+v", got)
	}
}

// TestCoordinateCoinClamp: a surrogate above 1 deploys as coin 1.
func TestCoordinateCoinClamp(t *testing.T) {
	_, m, _, cands := fixture(t)
	c := Coordinate(m, map[topology.LinkID]float64{cands[0]: 0.7, cands[1]: 0.6})
	if c.Assignments[0].Coin != 1 {
		t.Fatalf("coin = %v, want clamp at 1", c.Assignments[0].Coin)
	}
}

// TestCoordinateDeterministic: same inputs, bitwise-identical ranges —
// exporters configured independently must agree on the partition.
func TestCoordinateDeterministic(t *testing.T) {
	_, m, _, cands := fixture(t)
	rates := map[topology.LinkID]float64{cands[0]: 0.003, cands[1]: 0.001}
	a, b := Coordinate(m, rates), Coordinate(m, rates)
	for k := range a.Assignments {
		ra, rb := a.Assignments[k].Ranges, b.Assignments[k].Ranges
		if len(ra) != len(rb) {
			t.Fatal("range counts differ")
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("pair %d range %d differs: %v vs %v", k, j, ra[j], rb[j])
			}
		}
	}
}
