// Package loadtrack maintains per-link load estimates with
// deterministic confidence intervals, closing the loop the paper leaves
// open: the optimal allocation assumes the loads U_i are known, but in
// production they are themselves estimated from the monitors' own
// sampled observations, drift between intervals, and go stale the
// moment a monitor crashes.
//
// The tracker keeps, per link, an EWMA point estimate and a relative
// standard error. An observed interval tightens the error toward the
// observation's own standard error (the delta-method error of the
// renormalized estimator, sqrt((1-ρ)/X)); an unobserved interval — the
// link's monitor is off, crashed, or held in fault probation — widens
// the interval multiplicatively instead of merely aging it, so a dead
// monitor's estimate admits it knows less every interval, not just that
// it is old. The controller solves against the resulting lower/upper
// envelope (core.Solver.SolveRobust) and spends an exploration reserve
// on the widest intervals.
//
// Every update is a pure function of the inputs (no clocks, no global
// randomness), so a tracked run is bit-reproducible and the tracker
// state can join the controller's versioned snapshot codec.
package loadtrack

import (
	"errors"
	"fmt"
	"math"
)

// Config tunes a Tracker. Zero-value fields select the defaults noted
// on each field.
type Config struct {
	// Alpha is the EWMA weight of the newest observation in (0, 1];
	// 1 (the default when 0) trusts each observation outright.
	Alpha float64
	// WidenFactor multiplies a link's relative standard error for every
	// interval it goes unobserved (default 1.25; must be >= 1). 1 turns
	// widening off: staleness then only shows in Age.
	WidenFactor float64
}

const (
	// boundSigma is the confidence half-width in units of relative
	// standard error: a ~95% normal interval.
	boundSigma = 2
	// minRel floors the relative standard error: the tracker never
	// claims an estimate is exact, because the underlying quantity
	// drifts between observations.
	minRel = 0.02
	// maxRel caps the relative standard error: beyond this the interval
	// says "anything plausible" and growing it further only destabilizes
	// the bounds.
	maxRel = 4
	// minLowerFrac floors the lower bound at this fraction of the point
	// estimate: the optimizer requires strictly positive loads, and a
	// lower bound collapsing to zero would let an optimistic solve
	// assign absurd sampling rates to a link that merely went
	// unobserved.
	minLowerFrac = 0.05
)

func (c Config) withDefaults() Config {
	out := c
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if out.Alpha == 0 {
		out.Alpha = 1
	}
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if out.WidenFactor == 0 {
		out.WidenFactor = 1.25
	}
	return out
}

func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
		ok   bool
	}{
		{"Alpha", c.Alpha, c.Alpha > 0 && c.Alpha <= 1},
		{"WidenFactor", c.WidenFactor, c.WidenFactor >= 1 && !math.IsInf(c.WidenFactor, 0)},
	} {
		if !f.ok {
			return fmt.Errorf("loadtrack: %s = %v out of range", f.name, f.v)
		}
	}
	return nil
}

// Tracker is the per-link confidence state. The zero value is not
// usable; construct with New. A Tracker is not safe for concurrent
// mutation; the controller owns one and updates it once per interval.
type Tracker struct {
	cfg  Config
	mean []float64
	rel  []float64
	age  []int64 // intervals since last observation; -1 = never observed
}

// New returns a tracker for n links (indexed 0..n-1, the caller's
// LinkID space) with every link unobserved.
func New(n int, cfg Config) (*Tracker, error) {
	if n < 0 {
		return nil, fmt.Errorf("loadtrack: %d links, want >= 0", n)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tracker{
		cfg:  cfg,
		mean: make([]float64, n),
		rel:  make([]float64, n),
		age:  make([]int64, n),
	}
	for i := range t.age {
		t.age[i] = -1
		t.rel[i] = maxRel
	}
	return t, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(n int, cfg Config) *Tracker {
	t, err := New(n, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of tracked links.
//
//netsamp:noalloc
func (t *Tracker) Len() int { return len(t.mean) }

// Config returns the validated configuration (defaults filled in).
func (t *Tracker) Config() Config { return t.cfg }

// Observe ingests one measurement interval. values[i] is link i's load
// observation; relErr (nil = exact) is its relative standard error;
// observed (nil = all) marks which links actually reported this
// interval. For an observed link the point estimate is EWMA-updated and
// the error combined from the filter's memory and the observation's own
// error; an unobserved link keeps its estimate frozen and widens by
// WidenFactor. A link that has never been observed adopts the supplied
// value as its prior, at maxRel width — the best available anchor
// (typically the deployment-time load table) rather than an unusable
// zero. An observation with a non-finite relative error (the netflow
// estimator's degenerate no-sample case) counts as unobserved.
func (t *Tracker) Observe(values, relErr []float64, observed []bool) error {
	n := t.Len()
	if len(values) != n {
		return fmt.Errorf("loadtrack: %d values for %d links", len(values), n)
	}
	if relErr != nil && len(relErr) != n {
		return fmt.Errorf("loadtrack: %d relative errors for %d links", len(relErr), n)
	}
	if observed != nil && len(observed) != n {
		return fmt.Errorf("loadtrack: %d observed flags for %d links", len(observed), n)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("loadtrack: value of link %d is %v, want finite >= 0", i, v)
		}
		if relErr != nil && (math.IsNaN(relErr[i]) || relErr[i] < 0) && (observed == nil || observed[i]) {
			return fmt.Errorf("loadtrack: relative error of link %d is %v, want >= 0 (or +Inf for no information)", i, relErr[i])
		}
	}
	for i := range values {
		obs := observed == nil || observed[i]
		se := 0.0
		if relErr != nil {
			se = relErr[i]
		}
		if obs && math.IsInf(se, 1) {
			obs = false
		}
		if !obs {
			if t.age[i] < 0 {
				// Never observed: adopt the supplied value as the prior.
				t.mean[i] = values[i]
				t.rel[i] = maxRel
			} else {
				t.rel[i] = math.Min(maxRel, t.rel[i]*t.cfg.WidenFactor)
				t.age[i]++
			}
			continue
		}
		v := values[i]
		if t.age[i] < 0 {
			t.mean[i] = v
			t.rel[i] = t.clampRel(se)
			t.age[i] = 0
			continue
		}
		a := t.cfg.Alpha
		m := t.mean[i]
		nm := (1-a)*m + a*v
		var r float64
		if nm > 0 {
			// Absolute standard errors combine in quadrature (the filter
			// memory and the fresh observation are independent), then
			// renormalize by the new mean.
			carried := (1 - a) * t.rel[i] * m
			fresh := a * se * v
			r = math.Sqrt(carried*carried+fresh*fresh) / nm
		} else {
			r = maxRel
		}
		t.mean[i] = nm
		t.rel[i] = t.clampRel(r)
		t.age[i] = 0
	}
	return nil
}

func (t *Tracker) clampRel(r float64) float64 {
	return math.Min(maxRel, math.Max(minRel, r))
}

// Mean returns link i's point estimate.
func (t *Tracker) Mean(i int) float64 { return t.mean[i] }

// Rel returns link i's relative standard error.
func (t *Tracker) Rel(i int) float64 { return t.rel[i] }

// Age returns the intervals since link i was last observed (-1 = never).
func (t *Tracker) Age(i int) int { return int(t.age[i]) }

// Bounds returns link i's confidence envelope [lo, hi]: the point
// estimate widened by boundSigma relative standard errors, with the
// lower edge floored at a small positive fraction of the estimate so a
// robust solve always sees usable loads.
//
//netsamp:noalloc
func (t *Tracker) Bounds(i int) (lo, hi float64) {
	m := t.mean[i]
	w := boundSigma * t.rel[i]
	lo = m * math.Max(minLowerFrac, 1-w)
	hi = m * (1 + w)
	return lo, hi
}

// MeansInto fills dst (length Len) with the point estimates.
//
//netsamp:noalloc
func (t *Tracker) MeansInto(dst []float64) {
	if len(dst) != t.Len() {
		panic("loadtrack: MeansInto destination length mismatch")
	}
	copy(dst, t.mean)
}

// BoundsInto fills lo and hi (length Len) with the per-link envelope.
//
//netsamp:noalloc
func (t *Tracker) BoundsInto(lo, hi []float64) {
	if len(lo) != t.Len() || len(hi) != t.Len() {
		panic("loadtrack: BoundsInto destination length mismatch")
	}
	for i := range lo {
		lo[i], hi[i] = t.Bounds(i)
	}
}

// ErrBadState reports tracker state that fails semantic validation
// (mismatched lengths, non-finite estimates). Restore failures wrap it.
var ErrBadState = errors.New("loadtrack: invalid tracker state")

// Snapshot captures the tracker state (deep copies).
func (t *Tracker) Snapshot() State {
	return State{
		Mean: append([]float64{}, t.mean...),
		Rel:  append([]float64{}, t.rel...),
		Age:  append([]int64{}, t.age...),
	}
}

// Restore replaces the tracker contents with st (deep copies) after
// validating it; the tracker is resized to st's length. The
// configuration is NOT part of the state — it belongs to the owning
// controller's options, exactly like the EWMA coefficient.
func (t *Tracker) Restore(st State) error {
	if len(st.Rel) != len(st.Mean) || len(st.Age) != len(st.Mean) {
		return fmt.Errorf("%w: %d means, %d rels, %d ages", ErrBadState, len(st.Mean), len(st.Rel), len(st.Age))
	}
	for i, m := range st.Mean {
		if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
			return fmt.Errorf("%w: mean of link %d is %v, want finite >= 0", ErrBadState, i, m)
		}
		if r := st.Rel[i]; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("%w: relative error of link %d is %v, want finite >= 0", ErrBadState, i, r)
		}
		if st.Age[i] < -1 {
			return fmt.Errorf("%w: age of link %d is %d, want >= -1", ErrBadState, i, st.Age[i])
		}
	}
	t.mean = append(t.mean[:0:0], st.Mean...)
	t.rel = append(t.rel[:0:0], st.Rel...)
	t.age = append(t.age[:0:0], st.Age...)
	return nil
}
