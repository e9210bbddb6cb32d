// Package faults provides deterministic, seed-driven fault injection
// for the monitoring pipeline. The paper's premise is operational —
// monitors are reconfigured every measurement interval to follow
// traffic and routing dynamics (Sections I, VI) — and operational
// systems lose monitors, drop export datagrams and blow solver
// deadlines. This package models those failures so the rest of the
// system can be exercised (and measured) under them.
//
// Every fault draw is a pure function of (Config.Seed, fault domain,
// interval, entity) built on rng.SplitSeed, the same split-seeding
// discipline internal/engine uses for its jobs. Two consequences:
//
//   - a fault plan can be queried from any number of goroutines in any
//     order and always returns the same answer (Plan is stateless and
//     safe for concurrent use);
//   - a degradation study runs bit-identically at any worker count,
//     so robustness results are reproducible artifacts, not anecdotes.
//
// The stateful injectors (Channel for the exporter→collector datagram
// path, FlakyConn for transient socket errors) are deterministic given
// their construction order, mirroring the in-order semantics of the
// stream they corrupt.
package faults

import (
	"fmt"
	"math"

	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// Config parameterizes a fault plan. The zero value injects no faults.
// All probabilities are per-trial in [0, 1].
type Config struct {
	// Seed drives every fault draw; distinct seeds give independent
	// fault histories.
	Seed uint64

	// MonitorCrash is the per-interval probability that a monitor
	// starts an outage. Outage lengths are geometric-like with mean
	// MeanOutage intervals, hard-capped at MaxOutage.
	MonitorCrash float64
	// MeanOutage is the mean outage length in intervals (values < 1
	// select 1: crash-and-recover within one interval).
	MeanOutage float64
	// MaxOutage caps any single outage (default 8 intervals). The cap
	// bounds the lookback window of MonitorDown, keeping queries O(cap).
	MaxOutage int

	// DatagramLoss, DatagramDup and DatagramReorder drive the Channel
	// injector on the exporter→collector UDP path: each transmitted
	// datagram is independently dropped, duplicated, or held back one
	// slot (swapped with its successor).
	DatagramLoss    float64
	DatagramDup     float64
	DatagramReorder float64

	// SolverOverrun is the per-interval probability that the plan solve
	// blows its deadline and must be treated as failed.
	SolverOverrun float64

	// DriftVol makes the true per-link loads wander: each interval every
	// link's load is multiplied by exp(DriftVol·N(0,1)), a geometric
	// random walk with per-interval volatility DriftVol. 0 disables.
	DriftVol float64
	// DriftStep is the per-interval probability that a link's load takes
	// a step change (a regime shift: a routing event or a flash crowd),
	// multiplying it by a factor drawn log-uniformly in
	// [1/DriftStepMax, DriftStepMax].
	DriftStep float64
	// DriftStepMax bounds a single step-change factor (default 4; must
	// be >= 1).
	DriftStepMax float64
}

// Plan is a compiled fault schedule. It is stateless and safe for
// concurrent use; construct with NewPlan.
type Plan struct {
	cfg Config
}

// Fault domains keep the random streams of unrelated fault kinds
// decorrelated even when they share (interval, entity) coordinates.
const (
	domCrash uint64 = iota + 1
	// 2 drew the deleted rate-clamp fault; skipping it keeps every later
	// domain's stream, and so every recorded fault history, unchanged.
	_
	domSolver
	domChannel
	domDrift
)

// Drift factors are clamped to this range: a random walk left unbounded
// would eventually push a load outside any solver-friendly magnitude,
// and no five-minute interval moves a backbone link by more than this.
const (
	driftFloor = 1.0 / 16
	driftCeil  = 16.0
)

// NewPlan validates the configuration and returns a plan.
func NewPlan(cfg Config) (*Plan, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"MonitorCrash", cfg.MonitorCrash},
		{"DatagramLoss", cfg.DatagramLoss},
		{"DatagramDup", cfg.DatagramDup},
		{"DatagramReorder", cfg.DatagramReorder},
		{"SolverOverrun", cfg.SolverOverrun},
		{"DriftStep", cfg.DriftStep},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("faults: %s = %v, want a probability in [0, 1]", p.name, p.v)
		}
	}
	if math.IsNaN(cfg.DriftVol) || math.IsInf(cfg.DriftVol, 0) || cfg.DriftVol < 0 {
		return nil, fmt.Errorf("faults: DriftVol = %v, want a finite value >= 0", cfg.DriftVol)
	}
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if cfg.DriftStepMax == 0 {
		cfg.DriftStepMax = 4
	}
	if math.IsNaN(cfg.DriftStepMax) || math.IsInf(cfg.DriftStepMax, 0) || cfg.DriftStepMax < 1 {
		return nil, fmt.Errorf("faults: DriftStepMax = %v, want >= 1", cfg.DriftStepMax)
	}
	if cfg.MaxOutage < 0 {
		return nil, fmt.Errorf("faults: MaxOutage = %d, want >= 0", cfg.MaxOutage)
	}
	if cfg.MaxOutage == 0 {
		cfg.MaxOutage = 8
	}
	if cfg.MeanOutage < 1 {
		cfg.MeanOutage = 1
	}
	return &Plan{cfg: cfg}, nil
}

// Config returns the validated configuration (defaults filled in).
func (p *Plan) Config() Config { return p.cfg }

// source derives the deterministic stream of one fault draw. Chaining
// SplitSeed per coordinate keeps the function pure: any evaluation
// order — or concurrent evaluation — sees the same stream.
func (p *Plan) source(dom, a, b uint64) *rng.Source {
	s := rng.SplitSeed(p.cfg.Seed, dom)
	s = rng.SplitSeed(s, a)
	return rng.New(rng.SplitSeed(s, b))
}

// outageLen draws the length (in intervals) of an outage starting now.
func (p *Plan) outageLen(r *rng.Source) int {
	d := 1
	if p.cfg.MeanOutage > 1 {
		// Exponential tail with the requested mean beyond the first
		// interval; the +1 keeps every outage at least one interval.
		d = 1 + int(r.Exponential(1/(p.cfg.MeanOutage-1)))
	}
	if d > p.cfg.MaxOutage {
		d = p.cfg.MaxOutage
	}
	return d
}

// MonitorDown reports whether the monitor on link is inside an outage
// at the given interval: some interval t0 in the MaxOutage-long window
// ending at t started an outage that covers t. The answer is a pure
// function of (seed, t, link).
func (p *Plan) MonitorDown(t int, link topology.LinkID) bool {
	if p.cfg.MonitorCrash <= 0 || t < 0 {
		return false
	}
	lo := t - p.cfg.MaxOutage + 1
	if lo < 0 {
		lo = 0
	}
	for t0 := lo; t0 <= t; t0++ {
		r := p.source(domCrash, uint64(t0), uint64(link))
		if !r.Bernoulli(p.cfg.MonitorCrash) {
			continue
		}
		if t < t0+p.outageLen(r) {
			return true
		}
	}
	return false
}

// DownSet returns the candidates that are inside an outage at interval
// t, in input order.
func (p *Plan) DownSet(t int, candidates []topology.LinkID) []topology.LinkID {
	var down []topology.LinkID
	for _, lid := range candidates {
		if p.MonitorDown(t, lid) {
			down = append(down, lid)
		}
	}
	return down
}

// SolverOverrun reports whether interval t's solve blows its deadline.
func (p *Plan) SolverOverrun(t int) bool {
	if p.cfg.SolverOverrun <= 0 || t < 0 {
		return false
	}
	return p.source(domSolver, uint64(t), 0).Bernoulli(p.cfg.SolverOverrun)
}

// LoadDrift returns the cumulative drift factor of link's true load at
// interval t: the product of the per-interval random-walk and
// step-change multipliers up to and including t, clamped to
// [1/16, 16]. Interval 0 is the reference (factor 1). Like every fault
// draw, the answer is a pure function of (seed, t, link): querying the
// same interval twice — or from concurrent study jobs — always yields
// the same factor.
func (p *Plan) LoadDrift(t int, link topology.LinkID) float64 {
	if (p.cfg.DriftVol <= 0 && p.cfg.DriftStep <= 0) || t <= 0 {
		return 1
	}
	f := 1.0
	logMax := math.Log(p.cfg.DriftStepMax)
	for tau := 1; tau <= t; tau++ {
		r := p.source(domDrift, uint64(tau), uint64(link))
		if p.cfg.DriftVol > 0 {
			f *= math.Exp(p.cfg.DriftVol * r.NormFloat64())
		}
		if p.cfg.DriftStep > 0 && r.Bernoulli(p.cfg.DriftStep) {
			f *= math.Exp((2*r.Float64() - 1) * logMax)
		}
		f = math.Min(driftCeil, math.Max(driftFloor, f))
	}
	return f
}
