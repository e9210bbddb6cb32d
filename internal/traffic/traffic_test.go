package traffic

import (
	"math"
	"testing"

	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

func lineGraph(t *testing.T) (*topology.Graph, []topology.NodeID, *routing.Table) {
	t.Helper()
	g := topology.New()
	ids := []topology.NodeID{g.AddNode("A"), g.AddNode("B"), g.AddNode("C")}
	g.AddDuplex(ids[0], ids[1], topology.OC48, 1)
	g.AddDuplex(ids[1], ids[2], topology.OC48, 1)
	return g, ids, routing.ComputeTable(g)
}

func TestGravityTotalAndSymmetryOfSupport(t *testing.T) {
	g, ids, _ := lineGraph(t)
	mass := map[topology.NodeID]float64{ids[0]: 2, ids[1]: 1, ids[2]: 1}
	m := Gravity(g, mass, 1000, 0, nil)
	if got := len(m.Demands); got != 6 {
		t.Fatalf("demands = %d, want 6 ordered pairs", got)
	}
	if math.Abs(m.Total()-1000) > 1e-9 {
		t.Fatalf("total = %v, want 1000", m.Total())
	}
	// A (mass 2) pairs must carry twice the rate of equal-mass pairs.
	var ab, bc float64
	for _, d := range m.Demands {
		switch d.Pair.Name {
		case "A->B":
			ab = d.Rate
		case "B->C":
			bc = d.Rate
		}
	}
	if math.Abs(ab/bc-2) > 1e-9 {
		t.Fatalf("gravity proportionality broken: A->B=%v B->C=%v", ab, bc)
	}
}

func TestGravitySkipsZeroMass(t *testing.T) {
	g, ids, _ := lineGraph(t)
	mass := map[topology.NodeID]float64{ids[0]: 1, ids[2]: 1}
	m := Gravity(g, mass, 100, 0, nil)
	if len(m.Demands) != 2 {
		t.Fatalf("demands = %d, want 2 (B has no mass)", len(m.Demands))
	}
	for _, d := range m.Demands {
		if d.Pair.Src == ids[1] || d.Pair.Dst == ids[1] {
			t.Fatalf("zero-mass node appears in %q", d.Pair.Name)
		}
	}
}

func TestGravityJitterPreservesTotal(t *testing.T) {
	g, ids, _ := lineGraph(t)
	mass := map[topology.NodeID]float64{ids[0]: 1, ids[1]: 1, ids[2]: 1}
	r := rng.New(42)
	m := Gravity(g, mass, 500, 0.5, r)
	if math.Abs(m.Total()-500) > 1e-9 {
		t.Fatalf("jittered total = %v, want 500", m.Total())
	}
	// With jitter the six rates must not all be equal.
	first := m.Demands[0].Rate
	allEqual := true
	for _, d := range m.Demands[1:] {
		if math.Abs(d.Rate-first) > 1e-12 {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("jitter had no effect")
	}
}

func TestLinkLoadsAccumulate(t *testing.T) {
	g, ids, tbl := lineGraph(t)
	m := &Matrix{Demands: []Demand{
		{Pair: routing.ODPair{Name: "A->C", Src: ids[0], Dst: ids[2]}, Rate: 100},
		{Pair: routing.ODPair{Name: "B->C", Src: ids[1], Dst: ids[2]}, Rate: 50},
	}}
	loads, err := LinkLoads(g, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := g.FindLink(ids[0], ids[1])
	bc, _ := g.FindLink(ids[1], ids[2])
	cb, _ := g.FindLink(ids[2], ids[1])
	if loads[ab] != 100 {
		t.Fatalf("load(A->B) = %v", loads[ab])
	}
	if loads[bc] != 150 {
		t.Fatalf("load(B->C) = %v", loads[bc])
	}
	if loads[cb] != 0 {
		t.Fatalf("load(C->B) = %v, want 0", loads[cb])
	}
}

func TestLinkLoadsErrors(t *testing.T) {
	g, ids, tbl := lineGraph(t)
	bad := []*Matrix{
		{Demands: []Demand{{Pair: routing.ODPair{Name: "x", Src: ids[0], Dst: ids[0]}, Rate: 1}}},
		{Demands: []Demand{{Pair: routing.ODPair{Name: "y", Src: ids[0], Dst: ids[1]}, Rate: -1}}},
		// A node the table has never seen is an error, not an index panic.
		{Demands: []Demand{{Pair: routing.ODPair{Name: "z", Src: ids[0], Dst: 99}, Rate: 1}}},
	}
	for i, m := range bad {
		if _, err := LinkLoads(g, tbl, m); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := LinkLoadsECMP(g, tbl, m); err == nil {
			t.Errorf("case %d accepted under ECMP", i)
		}
	}
}

func TestMerge(t *testing.T) {
	a := &Matrix{Demands: []Demand{{Rate: 1}}}
	b := &Matrix{Demands: []Demand{{Rate: 2}, {Rate: 3}}}
	m := a.Merge(b)
	if len(m.Demands) != 3 || m.Total() != 6 {
		t.Fatalf("merge = %+v", m)
	}
	// Merge must not alias the source slices.
	m.Demands[0].Rate = 99
	if a.Demands[0].Rate == 99 {
		t.Fatal("Merge aliases input")
	}
}

func TestFixedSize(t *testing.T) {
	d := FixedSize{N: 250}
	r := rng.New(1)
	if d.Sample(r) != 250 {
		t.Fatal("FixedSize sample wrong")
	}
	if d.MeanInverse() != 1.0/250 {
		t.Fatal("FixedSize MeanInverse wrong")
	}
	zero := FixedSize{N: 0}
	if zero.Sample(r) != 1 || zero.MeanInverse() != 1 {
		t.Fatal("FixedSize zero-value handling wrong")
	}
}

func TestParetoSizeSupportAndMeanInverse(t *testing.T) {
	d := NewParetoSize(10, 1.2, 1_000_000)
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		s := d.Sample(r)
		if s < 10 || s > 1_000_000 {
			t.Fatalf("sample %d out of support", s)
		}
	}
	// Empirical check of the cached E[1/S] against a fresh estimate.
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += 1 / float64(d.Sample(r))
	}
	emp := sum / n
	if math.Abs(emp-d.MeanInverse())/emp > 0.05 {
		t.Fatalf("MeanInverse = %v, empirical %v", d.MeanInverse(), emp)
	}
}

// TestParetoSizesMatchSampling: the batch shares one power per uniform
// across scales, yet each scale's E[1/S] has the bits of sampling that
// scale alone from the fixed seed, term by term in the same order.
func TestParetoSizesMatchSampling(t *testing.T) {
	xms := []float64{0.5, 10, 300, 517.25, 899.9}
	for _, alpha := range []float64{1.2, 2.5} {
		for i, p := range NewParetoSizes(xms, alpha, 2_000_000) {
			r := rng.New(0x9a7e70)
			sum := 0.0
			for range 60000 {
				sum += 1 / float64(p.Sample(r))
			}
			if got, want := p.MeanInverse(), sum/60000; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("alpha %v xm %v: MeanInverse %x, sampled %x", alpha, xms[i], math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestGenerateFlowsExactTotal(t *testing.T) {
	r := rng.New(3)
	dist := NewParetoSize(5, 1.3, 100000)
	fs := GenerateFlows(1000, 300, dist, r)
	if fs.Total != 300000 {
		t.Fatalf("total = %d, want 300000", fs.Total)
	}
	var sum int64
	for _, s := range fs.Sizes {
		if s < 1 {
			t.Fatalf("flow of size %d", s)
		}
		sum += s
	}
	if sum != fs.Total {
		t.Fatalf("sizes sum %d != total %d", sum, fs.Total)
	}
}

func TestGenerateFlowsTinyDemand(t *testing.T) {
	r := rng.New(4)
	fs := GenerateFlows(0.001, 300, FixedSize{N: 100}, r)
	if fs.Total != 1 || len(fs.Sizes) != 1 {
		t.Fatalf("tiny demand flow set = %+v", fs)
	}
}

func TestMeanInverseSizeEmpirical(t *testing.T) {
	fs := &FlowSet{Sizes: []int64{1, 2, 4}, Total: 7}
	want := (1.0 + 0.5 + 0.25) / 3
	if got := fs.MeanInverseSize(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanInverseSize = %v, want %v", got, want)
	}
	empty := &FlowSet{}
	if empty.MeanInverseSize() != 0 {
		t.Fatal("empty flow set MeanInverseSize != 0")
	}
}

func TestLinkLoadsECMPSplits(t *testing.T) {
	g := topology.New()
	a, b, c, d := g.AddNode("A"), g.AddNode("B"), g.AddNode("C"), g.AddNode("D")
	g.AddDuplex(a, b, topology.OC48, 1)
	g.AddDuplex(a, c, topology.OC48, 1)
	g.AddDuplex(b, d, topology.OC48, 1)
	g.AddDuplex(c, d, topology.OC48, 1)
	tbl := routing.ComputeTable(g)
	m := &Matrix{Demands: []Demand{
		{Pair: routing.ODPair{Name: "A->D", Src: a, Dst: d}, Rate: 1000},
	}}
	loads, err := LinkLoadsECMP(g, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := g.FindLink(a, b)
	ac, _ := g.FindLink(a, c)
	bd, _ := g.FindLink(b, d)
	if math.Abs(loads[ab]-500) > 1e-9 || math.Abs(loads[ac]-500) > 1e-9 {
		t.Fatalf("ECMP split loads = %v / %v, want 500 each", loads[ab], loads[ac])
	}
	if math.Abs(loads[bd]-500) > 1e-9 {
		t.Fatalf("second hop load = %v", loads[bd])
	}
	// Single-path routing puts everything on one branch.
	sp, err := LinkLoads(g, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	if sp[ab] != 1000 || sp[ac] != 0 {
		t.Fatalf("single-path loads = %v / %v", sp[ab], sp[ac])
	}
}

func TestLinkLoadsECMPErrors(t *testing.T) {
	g, ids, tbl := lineGraph(t)
	bad := &Matrix{Demands: []Demand{{Pair: routing.ODPair{Name: "x", Src: ids[0], Dst: ids[0]}, Rate: 1}}}
	if _, err := LinkLoadsECMP(g, tbl, bad); err == nil {
		t.Fatal("degenerate demand accepted")
	}
	neg := &Matrix{Demands: []Demand{{Pair: routing.ODPair{Name: "y", Src: ids[0], Dst: ids[1]}, Rate: -1}}}
	if _, err := LinkLoadsECMP(g, tbl, neg); err == nil {
		t.Fatal("negative demand accepted")
	}
}

func TestScale(t *testing.T) {
	m := &Matrix{Demands: []Demand{{Rate: 10}, {Rate: 20}}}
	s := m.Scale(0.5)
	if s.Demands[0].Rate != 5 || s.Demands[1].Rate != 10 {
		t.Fatalf("scaled = %+v", s.Demands)
	}
	if m.Demands[0].Rate != 10 {
		t.Fatal("Scale mutated the input")
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Period: 288, Trough: 0.4, Peak: 1.0}
	if f := d.Factor(0, nil); math.Abs(f-0.4) > 1e-12 {
		t.Fatalf("trough factor = %v", f)
	}
	if f := d.Factor(144, nil); math.Abs(f-1.0) > 1e-12 {
		t.Fatalf("peak factor = %v", f)
	}
	// Periodicity.
	if d.Factor(288, nil) != d.Factor(0, nil) {
		t.Fatal("not periodic")
	}
	// All factors within [trough, peak].
	for i := 0; i < 288; i++ {
		f := d.Factor(i, nil)
		if f < 0.4-1e-12 || f > 1.0+1e-12 {
			t.Fatalf("factor out of band at %d: %v", i, f)
		}
	}
}

func TestDiurnalNoise(t *testing.T) {
	d := Diurnal{Period: 288, Trough: 0.4, Peak: 1.0, Noise: 0.2}
	r := rng.New(5)
	a, b := d.Factor(10, r), d.Factor(10, r)
	if a == b {
		t.Fatal("noise inert")
	}
	if a <= 0 || b <= 0 {
		t.Fatal("non-positive factor")
	}
}

func TestDiurnalDefaults(t *testing.T) {
	var d Diurnal // zero value: period 288, peak 1, trough 0.5
	f := d.Factor(0, nil)
	if f <= 0 || f > 1 {
		t.Fatalf("zero-value factor = %v", f)
	}
}

func TestGenerateTimedFlows(t *testing.T) {
	r := rng.New(6)
	fs := GenerateTimedFlows(500, 300, FixedSize{N: 100}, 20, r)
	if fs.Total != 150000 {
		t.Fatalf("total = %d", fs.Total)
	}
	var sum int64
	for _, f := range fs.Flows {
		sum += f.Size
		if f.Start < 0 || f.Start >= 300 {
			t.Fatalf("start out of interval: %v", f.Start)
		}
		if f.Duration < 0 || f.Start+f.Duration > 300+1e-9 {
			t.Fatalf("flow overruns interval: start %v dur %v", f.Start, f.Duration)
		}
	}
	if sum != fs.Total {
		t.Fatalf("sizes sum %d != total %d", sum, fs.Total)
	}
	// Arrivals roughly uniform: mean start near interval/2.
	mean := 0.0
	for _, f := range fs.Flows {
		mean += f.Start
	}
	mean /= float64(len(fs.Flows))
	if mean < 100 || mean > 200 {
		t.Fatalf("mean arrival = %v, want ≈150", mean)
	}
}

func TestGenerateTimedFlowsZeroDuration(t *testing.T) {
	r := rng.New(7)
	fs := GenerateTimedFlows(10, 300, FixedSize{N: 10}, 0, r)
	for _, f := range fs.Flows {
		if f.Duration != 0 {
			t.Fatalf("duration = %v, want 0", f.Duration)
		}
	}
}
