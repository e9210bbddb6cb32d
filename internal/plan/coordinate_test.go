package plan

import (
	"strconv"
	"testing"

	"netsamp/internal/geant"
	"netsamp/internal/packet"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// scanMonitorConfig is the reference: MonitorConfig as it was before
// the coordination was inverted, scanning every pair's monitor list for
// lid.
func scanMonitorConfig(c *Coordination, lid topology.LinkID) (ranges []packet.HashRange, coins []float64) {
	ranges = make([]packet.HashRange, len(c.Assignments))
	coins = make([]float64, len(c.Assignments))
	for k := range c.Assignments {
		ranges[k] = packet.EmptyHashRange
		a := &c.Assignments[k]
		for j, l := range a.Links {
			if l == lid {
				ranges[k] = a.Ranges[j]
				coins[k] = a.Coin
				break
			}
		}
	}
	return ranges, coins
}

// scaleMatrix lays a generated ECMP instance out as a routing matrix and
// returns it with the instance's link count.
func scaleMatrix(tb testing.TB, cfg topology.ScaleConfig) (*routing.Matrix, int) {
	tb.Helper()
	cfg.ECMP = true
	inst, err := topology.GenerateScale(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m := &routing.Matrix{}
	for k := 0; k < inst.NumPairs(); k++ {
		lo, hi := inst.Start[k], inst.Start[k+1]
		row := make([]topology.LinkID, 0, hi-lo)
		for _, l := range inst.Links[lo:hi] {
			row = append(row, topology.LinkID(l))
		}
		m.Pairs = append(m.Pairs, routing.ODPair{Name: "p" + strconv.Itoa(k)})
		m.Rows = append(m.Rows, row)
		m.Fracs = append(m.Fracs, append([]float64(nil), inst.Fracs[lo:hi]...))
	}
	return m, inst.Graph.NumLinks()
}

// TestMonitorConfigMatchesScan holds the inverted MonitorConfig to the
// scan it replaced, byte for byte, for every link of GEANT and of a
// 300-link ECMP instance — including links that own nothing. Rates mix
// zero-rate links, links absent from the plan, rates so small their
// range rounds to a sliver, and rows that list one link twice (the link
// then holds two ranges of the same pair; the first must win, as in the
// scan).
func TestMonitorConfigMatchesScan(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	scale, scaleLinks := scaleMatrix(t, topology.ScaleConfig{Seed: 7, Links: 300, Pairs: 2550})
	for _, c := range []struct {
		name  string
		m     *routing.Matrix
		links int
	}{
		{"geant", s.Matrix, s.Graph.NumLinks()},
		{"scale-300-ecmp", scale, scaleLinks},
	} {
		r := rng.New(27)
		for trial := 0; trial < 4; trial++ {
			rates := map[topology.LinkID]float64{}
			for l := 0; l < c.links; l++ {
				switch u := r.Float64(); {
				case u < 0.2: // absent
				case u < 0.35:
					rates[topology.LinkID(l)] = 0
				case u < 0.4:
					rates[topology.LinkID(l)] = 1e-300
				default:
					rates[topology.LinkID(l)] = 0.001 + 0.5*r.Float64()
				}
			}
			m := c.m
			if trial == 3 {
				// Every tenth row lists its first link a second time.
				m = &routing.Matrix{Pairs: c.m.Pairs, Rows: make([][]topology.LinkID, len(c.m.Rows))}
				if c.m.Fracs != nil {
					m.Fracs = make([][]float64, len(c.m.Rows))
				}
				for k, row := range c.m.Rows {
					m.Rows[k] = row
					if c.m.Fracs != nil {
						m.Fracs[k] = c.m.Fracs[k]
					}
					if k%10 == 0 && len(row) > 0 {
						m.Rows[k] = append(append([]topology.LinkID(nil), row...), row[0])
						if c.m.Fracs != nil {
							m.Fracs[k] = append(append([]float64(nil), c.m.Fracs[k]...), c.m.Fracs[k][0])
						}
					}
				}
			}
			coord := Coordinate(m, rates)
			owners := 0
			for l := -1; l <= c.links; l++ {
				lid := topology.LinkID(l)
				gotR, gotC := coord.MonitorConfig(lid)
				wantR, wantC := scanMonitorConfig(coord, lid)
				if len(gotR) != len(wantR) || len(gotC) != len(wantC) {
					t.Fatalf("%s trial %d link %d: %d/%d entries, want %d/%d", c.name, trial, l, len(gotR), len(gotC), len(wantR), len(wantC))
				}
				owns := false
				for k := range wantR {
					if gotR[k] != wantR[k] || gotC[k] != wantC[k] {
						t.Fatalf("%s trial %d link %d pair %d: (%v, %v), want (%v, %v)", c.name, trial, l, k, gotR[k], gotC[k], wantR[k], wantC[k])
					}
					owns = owns || wantR[k] != packet.EmptyHashRange
				}
				if owns {
					owners++
				}
			}
			if owners == 0 {
				t.Fatalf("%s trial %d: no link owns a range", c.name, trial)
			}
		}
	}
}

// TestCoordinateAllocsFlat: every pair's links and ranges are windows of
// two flat arrays and the shares one reused scratch, so a coordination of
// 2 550 pairs costs a bounded number of allocations, not three per pair.
func TestCoordinateAllocsFlat(t *testing.T) {
	m, links := scaleMatrix(t, topology.ScaleConfig{Seed: 7, Links: 300, Pairs: 2550})
	rates := map[topology.LinkID]float64{}
	for l := 0; l < links; l++ {
		rates[topology.LinkID(l)] = 0.01
	}
	const bound = 40
	if allocs := testing.AllocsPerRun(5, func() { Coordinate(m, rates) }); allocs > bound {
		t.Fatalf("Coordinate: %.0f allocations over %d pairs, want at most %d", allocs, len(m.Pairs), bound)
	}
}

// BenchmarkCoordinate builds the coordination of an 800-link ECMP
// instance (21 170 pairs) with most links active, once per reroute
// interval's plan.
func BenchmarkCoordinate(b *testing.B) {
	m, links := scaleMatrix(b, topology.ScaleConfig{Seed: 3, Links: 800})
	rates := map[topology.LinkID]float64{}
	r := rng.New(1)
	for l := 0; l < links; l++ {
		if r.Bernoulli(0.7) {
			rates[topology.LinkID(l)] = 0.001 + 0.01*r.Float64()
		}
	}
	b.ReportMetric(float64(len(m.Pairs)), "pairs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coordinationSink = Coordinate(m, rates)
	}
}

// coordinationSink keeps BenchmarkCoordinate's result live.
var coordinationSink *Coordination

// BenchmarkMonitorConfig configures every monitor of an 800-link ECMP
// instance with most links active, the shape of a reroute interval.
func BenchmarkMonitorConfig(b *testing.B) {
	m, links := scaleMatrix(b, topology.ScaleConfig{Seed: 3, Links: 800})
	rates := map[topology.LinkID]float64{}
	r := rng.New(1)
	for l := 0; l < links; l++ {
		if r.Bernoulli(0.7) {
			rates[topology.LinkID(l)] = 0.001 + 0.01*r.Float64()
		}
	}
	coord := Coordinate(m, rates)
	active := topology.SortedKeys(rates)
	b.ReportMetric(float64(len(m.Pairs)), "pairs")
	b.ReportMetric(float64(len(active)), "monitors")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lid := range active {
			coord.MonitorConfig(lid)
		}
	}
}
