package eval

import (
	"fmt"
	"math"

	"netsamp/internal/geant"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/traffic"
)

// World is one measurement interval's synthesized observations: the
// per-link packet loads and the per-pair mean inverse OD sizes the
// controller steps on.
type World struct {
	Loads []float64
	Inv   []float64
}

// worldDomain decorrelates the world-synthesis random stream from the
// fault-plan domains sharing the same master seed.
const worldDomain uint64 = 0x574f524c // "WORL"

// DefaultDiurnalPeriod is the diurnal cycle length, in intervals, of the
// serve loop's synthesized traffic (24 five-minute intervals = 2 hours
// per cycle; the cycle length matters less than its determinism).
const DefaultDiurnalPeriod = 24

// IntervalWorld synthesizes interval t's observations as a PURE function
// of (seed, t): the diurnal background factor (with noise), lognormal
// jitter on the JANET pair demands, and the resulting link loads. Unlike
// DynamicStudy's sequential jitter stream, every draw here comes from a
// source split-seeded per interval — so a recovered run can regenerate
// interval t's world bit-exactly without replaying intervals 0..t-1,
// which is the foundation of the daemon's deterministic-recovery
// guarantee.
func IntervalWorld(s *geant.Scenario, t int, seed uint64) (*World, error) {
	if t < 0 {
		return nil, fmt.Errorf("eval: interval %d, want >= 0", t)
	}
	r := rng.New(rng.SplitSeed(rng.SplitSeed(seed, worldDomain), uint64(t)))
	profile := traffic.Diurnal{Period: DefaultDiurnalPeriod, Trough: 0.5, Peak: 1.2, Noise: 0.1}
	w, err := synthesizeWorld(s, s.Table, profile, t, r, nil)
	if err != nil {
		return nil, fmt.Errorf("eval: interval %d loads: %w", t, err)
	}
	return w, nil
}

// synthesizeWorld draws interval t's traffic from r — the diurnal
// background factor first, then one lognormal jitter per JANET pair; the
// draw order is part of every golden — and routes it over tbl. adjust,
// when non-nil, edits the jittered JANET rates before they load the
// links.
func synthesizeWorld(s *geant.Scenario, tbl *routing.Table, profile traffic.Diurnal, t int, r *rng.Source, adjust func(rates []float64)) (*World, error) {
	factor := profile.Factor(t, r)
	rates := make([]float64, len(s.Rates))
	for k := range rates {
		rates[k] = s.Rates[k] * r.LogNormal(0, 0.15)
	}
	if adjust != nil {
		adjust(rates)
	}
	demands := &traffic.Matrix{}
	for _, d := range s.Demands.Demands {
		nd := d
		isJANET := false
		for k, pr := range s.Pairs {
			if d.Pair.Name == pr.Name {
				nd.Rate = rates[k]
				isJANET = true
				break
			}
		}
		if !isJANET {
			nd.Rate *= factor
		}
		demands.Demands = append(demands.Demands, nd)
	}
	loads, err := traffic.LinkLoads(s.Graph, tbl, demands)
	if err != nil {
		return nil, err
	}
	inv := make([]float64, len(rates))
	for k := range rates {
		inv[k] = math.Min(1, 1/(rates[k]*Interval))
	}
	return &World{Loads: loads, Inv: inv}, nil
}
