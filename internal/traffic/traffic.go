// Package traffic models the offered load of the backbone: origin-
// destination demands (a traffic matrix), the per-link loads U_e they
// induce under the routing, and the flow-level structure (heavy-tailed
// flow sizes) the sampling accuracy depends on.
//
// The paper's evaluation uses post-processed sampled NetFlow from GEANT
// as ground truth. That dataset is proprietary, so this package provides
// the synthetic equivalent: explicit demands for the OD pairs under
// study plus a gravity-model background matrix, both routed over the
// real topology to obtain link loads, and a flow generator that converts
// a demand (pkt/s) into individual flows within a measurement interval.
package traffic

import (
	"fmt"
	"math"

	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// DefaultInterval is the paper's measurement interval: 5 minutes, chosen
// to absorb clock skew between routers exporting flow records.
const DefaultInterval = 300.0 // seconds

// Demand is the average packet rate of one OD pair.
type Demand struct {
	Pair routing.ODPair
	Rate float64 // packets per second
}

// Matrix is a set of OD demands (a traffic matrix in list form).
type Matrix struct {
	Demands []Demand
}

// Total returns the total offered packet rate.
func (m *Matrix) Total() float64 {
	s := 0.0
	for _, d := range m.Demands {
		s += d.Rate
	}
	return s
}

// Gravity generates a gravity-model traffic matrix over every ordered
// pair of distinct nodes with positive mass: the demand of (s, d) is
// proportional to mass[s]*mass[d], scaled so the total offered rate is
// totalRate. Nodes missing from mass (or with non-positive mass)
// originate and attract no traffic. A small multiplicative jitter
// (lognormal, sigma=jitter) is applied per pair when jitter > 0, drawn
// from r.
func Gravity(g *topology.Graph, mass map[topology.NodeID]float64, totalRate, jitter float64, r *rng.Source) *Matrix {
	type ent struct {
		id topology.NodeID
		w  float64
	}
	var nodes []ent
	for n := 0; n < g.NumNodes(); n++ {
		id := topology.NodeID(n)
		if w := mass[id]; w > 0 {
			nodes = append(nodes, ent{id, w})
		}
	}
	var demands []Demand
	sum := 0.0
	for _, s := range nodes {
		for _, d := range nodes {
			if s.id == d.id {
				continue
			}
			rate := s.w * d.w
			if jitter > 0 && r != nil {
				rate *= r.LogNormal(0, jitter)
			}
			demands = append(demands, Demand{
				Pair: routing.ODPair{
					Name: g.Node(s.id).Name + "->" + g.Node(d.id).Name,
					Src:  s.id,
					Dst:  d.id,
				},
				Rate: rate,
			})
			sum += rate
		}
	}
	if sum > 0 {
		scale := totalRate / sum
		for i := range demands {
			demands[i].Rate *= scale
		}
	}
	return &Matrix{Demands: demands}
}

// Merge returns a matrix containing the demands of m followed by those
// of others.
func (m *Matrix) Merge(others ...*Matrix) *Matrix {
	out := &Matrix{Demands: append([]Demand(nil), m.Demands...)}
	for _, o := range others {
		out.Demands = append(out.Demands, o.Demands...)
	}
	return out
}

// LinkLoads routes every demand over tbl and accumulates the per-link
// packet rates U_e (indexed by topology.LinkID). Demands between
// identical endpoints are rejected; unroutable demands return an error.
func LinkLoads(g *topology.Graph, tbl *routing.Table, m *Matrix) ([]float64, error) {
	return linkLoads(g, tbl, m, routing.BuildMatrix)
}

// LinkLoadsECMP routes every demand over the full equal-cost multipath
// DAG, splitting each demand according to the per-link fractions, and
// accumulates the per-link packet rates U_e. Use it together with
// routing.BuildMatrixECMP when the network load-balances across equal
// IGP costs.
func LinkLoadsECMP(g *topology.Graph, tbl *routing.Table, m *Matrix) ([]float64, error) {
	return linkLoads(g, tbl, m, routing.BuildMatrixECMP)
}

// linkLoads routes the demands' pairs with build — the rows the
// optimizer would see for them — and sums rate × fraction per link.
func linkLoads(g *topology.Graph, tbl *routing.Table, m *Matrix, build func(*routing.Table, []routing.ODPair) (*routing.Matrix, error)) ([]float64, error) {
	pairs := make([]routing.ODPair, len(m.Demands))
	for k, d := range m.Demands {
		if d.Rate < 0 {
			return nil, fmt.Errorf("traffic: negative rate for %q", d.Pair.Name)
		}
		pairs[k] = d.Pair
	}
	rm, err := build(tbl, pairs)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	loads := make([]float64, g.NumLinks())
	for k, row := range rm.Rows {
		for i, lid := range row {
			f := 1.0
			if rm.Fracs != nil {
				f = rm.Fracs[k][i]
			}
			loads[lid] += m.Demands[k].Rate * f
		}
	}
	return loads, nil
}

// SizeDist is a flow-size distribution in packets. MeanInverse returns
// E[1/S], the quantity the paper's utility function is parameterized by
// (Section IV-C); implementations may return an analytic value or a
// Monte-Carlo estimate.
type SizeDist interface {
	// Sample draws a flow size in packets (always >= 1).
	Sample(r *rng.Source) int64
	// MeanInverse returns E[1/S].
	MeanInverse() float64
}

// FixedSize is a degenerate distribution: every flow has exactly N
// packets. Useful in tests, where E[1/S] = 1/N exactly.
type FixedSize struct{ N int64 }

// Sample implements SizeDist.
func (f FixedSize) Sample(*rng.Source) int64 {
	if f.N < 1 {
		return 1
	}
	return f.N
}

// MeanInverse implements SizeDist.
func (f FixedSize) MeanInverse() float64 {
	if f.N < 1 {
		return 1
	}
	return 1 / float64(f.N)
}

// ParetoSize draws flow sizes from a discretized bounded Pareto
// distribution: Sample = ceil(Pareto(Xm, Alpha)) clamped to MaxPackets.
// Internet flow sizes are famously heavy-tailed; the paper's Figure 1
// plots utilities for mean flow sizes around 500 and 1500 packets, which
// this distribution reproduces with suitable parameters.
type ParetoSize struct {
	Xm         float64 // scale (minimum size), packets
	Alpha      float64 // tail exponent, > 1 for finite mean
	MaxPackets int64   // clamp; 0 means no clamp
	// meanInv caches the Monte-Carlo estimate of E[1/S].
	meanInv float64
}

// NewParetoSize builds a ParetoSize and precomputes E[1/S] by a
// deterministic Monte-Carlo estimate (the discretized, clamped
// distribution has no convenient closed form). It is NewParetoSizes'
// one-scale case.
func NewParetoSize(xm, alpha float64, maxPackets int64) *ParetoSize {
	return NewParetoSizes([]float64{xm}, alpha, maxPackets)[0]
}

// NewParetoSizes builds one ParetoSize per scale of xms, all with tail
// alpha and clamp maxPackets. Every scale's E[1/S] estimate draws the
// same fixed-seed uniforms u, and a Pareto(xm, alpha) variate is
// xm / u^(1/alpha), so each power is taken once and shared: scale i's
// estimate sums the same terms in the same order as sampling it alone.
func NewParetoSizes(xms []float64, alpha float64, maxPackets int64) []*ParetoSize {
	ps := make([]*ParetoSize, len(xms))
	sums := make([]float64, len(xms))
	for i, xm := range xms {
		if xm <= 0 || alpha <= 0 {
			panic("traffic: Pareto sizes require positive xm and alpha")
		}
		ps[i] = &ParetoSize{Xm: xm, Alpha: alpha, MaxPackets: maxPackets}
	}
	r := rng.New(0x9a7e70)
	const n = 60000
	for range n {
		u := r.Float64()
		for u == 0 { // rng.Pareto's rejection of u = 0
			u = r.Float64()
		}
		pw := math.Pow(u, 1/alpha)
		for i, p := range ps {
			sums[i] += 1 / float64(p.discretize(p.Xm/pw))
		}
	}
	for i, p := range ps {
		p.meanInv = sums[i] / n
	}
	return ps
}

// Sample implements SizeDist.
func (p *ParetoSize) Sample(r *rng.Source) int64 { return p.discretize(r.Pareto(p.Xm, p.Alpha)) }

// discretize rounds a Pareto variate up to whole packets, at least one
// and at most MaxPackets when that is set.
func (p *ParetoSize) discretize(x float64) int64 {
	v := int64(math.Ceil(x))
	if v < 1 {
		v = 1
	}
	if p.MaxPackets > 0 && v > p.MaxPackets {
		v = p.MaxPackets
	}
	return v
}

// MeanInverse implements SizeDist.
func (p *ParetoSize) MeanInverse() float64 { return p.meanInv }

// FlowSet is the flow-level decomposition of one OD pair's traffic in a
// measurement interval.
type FlowSet struct {
	Sizes []int64 // packets per flow
	Total int64   // sum of Sizes
}

// GenerateFlows decomposes rate (pkt/s) over an interval of the given
// length into flows drawn from dist, stopping when the cumulative packet
// count reaches rate*interval (the final flow is truncated so the total
// matches exactly). The result has Total == round(rate*interval) unless
// that is zero, in which case a single 1-packet flow is emitted so every
// OD pair under study is estimable.
func GenerateFlows(rate, interval float64, dist SizeDist, r *rng.Source) *FlowSet {
	target := int64(math.Round(rate * interval))
	if target <= 0 {
		return &FlowSet{Sizes: []int64{1}, Total: 1}
	}
	fs := &FlowSet{}
	for fs.Total < target {
		s := dist.Sample(r)
		if remaining := target - fs.Total; s > remaining {
			s = remaining
		}
		fs.Sizes = append(fs.Sizes, s)
		fs.Total += s
	}
	return fs
}

// MeanInverseSize returns the empirical E[1/S] of the flow set. The
// utility the optimizer maximizes is parameterized by this quantity.
func (fs *FlowSet) MeanInverseSize() float64 {
	if len(fs.Sizes) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range fs.Sizes {
		sum += 1 / float64(s)
	}
	return sum / float64(len(fs.Sizes))
}

// Scale returns a copy of the matrix with every demand multiplied by
// factor. Factors below zero are rejected by the load computation later.
func (m *Matrix) Scale(factor float64) *Matrix {
	out := &Matrix{Demands: make([]Demand, len(m.Demands))}
	copy(out.Demands, m.Demands)
	for i := range out.Demands {
		out.Demands[i].Rate *= factor
	}
	return out
}

// Diurnal is a day-shaped load profile: interval t of a period maps to
// a multiplicative factor oscillating between Trough and Peak with
// optional lognormal noise. Backbone traffic famously follows such
// cycles; the paper's argument for re-optimization rests on them.
type Diurnal struct {
	// Period is the number of measurement intervals per cycle (e.g.
	// 288 five-minute intervals per day).
	Period int
	// Trough and Peak bound the cycle (e.g. 0.4 and 1.0).
	Trough, Peak float64
	// Noise is the sigma of per-interval lognormal jitter (0 disables).
	Noise float64
}

// Factor returns the load multiplier for interval t, drawing noise from
// r when configured.
func (d Diurnal) Factor(t int, r *rng.Source) float64 {
	period := d.Period
	if period <= 0 {
		period = 288
	}
	peak, trough := d.Peak, d.Trough
	if peak <= 0 {
		peak = 1
	}
	if trough <= 0 || trough > peak {
		trough = peak / 2
	}
	phase := 2 * math.Pi * float64(t%period) / float64(period)
	mid := (peak + trough) / 2
	amp := (peak - trough) / 2
	f := mid - amp*math.Cos(phase) // trough at t=0, peak mid-period
	if d.Noise > 0 && r != nil {
		f *= r.LogNormal(0, d.Noise)
	}
	if f <= 0 {
		f = trough
	}
	return f
}

// TimedFlow is a flow with arrival time and duration inside a
// measurement interval: Size packets spread uniformly over
// [Start, Start+Duration).
type TimedFlow struct {
	Size     int64
	Start    float64 // seconds from interval start
	Duration float64 // seconds, >= 0 (0 means single burst)
}

// TimedFlowSet decomposes one OD pair's interval traffic into flows
// with arrival times.
type TimedFlowSet struct {
	Flows []TimedFlow
	Total int64
}

// GenerateTimedFlows is GenerateFlows plus temporal structure: flow
// arrivals are uniform over the interval (a Poisson process conditioned
// on the flow count) and each flow lasts an exponential duration with
// the given mean, truncated at the interval end. The flow-level replay
// in cmd/netflow-sim uses this to drive the flow tables' idle and
// active timeouts the way real traffic does.
func GenerateTimedFlows(rate, interval float64, dist SizeDist, meanDuration float64, r *rng.Source) *TimedFlowSet {
	base := GenerateFlows(rate, interval, dist, r)
	out := &TimedFlowSet{Total: base.Total}
	for _, size := range base.Sizes {
		start := r.Float64() * interval
		dur := 0.0
		if meanDuration > 0 {
			dur = r.Exponential(1 / meanDuration)
		}
		if start+dur > interval {
			dur = interval - start
		}
		out.Flows = append(out.Flows, TimedFlow{Size: size, Start: start, Duration: dur})
	}
	return out
}
