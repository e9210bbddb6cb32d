package core

import (
	"fmt"
	"math"
)

// Robust solving: the paper's allocation treats the link loads U_i as
// known, but an operating controller only has confidence intervals
// around them (internal/loadtrack). Solving against an edge of that
// envelope turns load uncertainty into an explicit operating posture:
//
//   - pessimistic (upper bounds): the budget constraint Σ p_i·U_i ≤ θ
//     is enforced against the largest loads consistent with the
//     envelope, so the TRUE sampled-packet spend stays within θ for any
//     loads inside it — the infrastructure never has to clip the plan;
//   - optimistic (lower bounds): the most aggressive plan the envelope
//     admits; the true spend may exceed θ, in exchange for rates closer
//     to the clairvoyant optimum when the estimates are right.
//
// SolveRobust reuses the compiled Solver workspace and the warm-start
// projection, so a controller's per-interval robust solve costs the
// same re-tune-plus-solve as the point-estimate path.

// RobustMode selects which edge of a load confidence envelope a robust
// solve optimizes against.
type RobustMode uint8

const (
	// RobustOff solves against the point estimates (the plain Solve path).
	RobustOff RobustMode = iota
	// RobustPessimistic solves against the upper load bounds.
	RobustPessimistic
	// RobustOptimistic solves against the lower load bounds.
	RobustOptimistic
)

// String returns the mode's CLI name.
func (m RobustMode) String() string {
	switch m {
	case RobustOff:
		return "off"
	case RobustPessimistic:
		return "pessimistic"
	case RobustOptimistic:
		return "optimistic"
	}
	return fmt.Sprintf("robust(%d)", uint8(m))
}

// RobustModeByName resolves "off", "pessimistic" or "optimistic".
func RobustModeByName(name string) (RobustMode, error) {
	switch name {
	case "off", "":
		return RobustOff, nil
	case "pessimistic":
		return RobustPessimistic, nil
	case "optimistic":
		return RobustOptimistic, nil
	}
	return RobustOff, fmt.Errorf("core: unknown robust mode %q (want off, pessimistic or optimistic)", name)
}

// SolveRobust re-tunes the solver onto the chosen edge of the
// [lower, upper] load envelope (per-link, in problem link order) and
// solves. RobustOff ignores the bounds and solves as-is. When the
// optimistic edge shrinks the maximum samplable rate Σ α_i·L_i below
// the configured budget, the budget is clamped to that maximum — the
// budget constraint would be inactive at the optimum anyway, and
// rejecting the interval would turn honest uncertainty into an outage.
// A non-nil opt.Initial is re-projected onto the re-tuned feasible set
// (the WarmStart machinery), so cross-interval warm starts survive the
// envelope substitution.
//
// The solver is left re-tuned to the envelope loads (and, when clamped,
// the reduced budget); re-tune with SetLoads/SetBudget — or, through a
// plan.Cache, the next Get — before reusing it for point solves.
func (s *Solver) SolveRobust(mode RobustMode, lower, upper []float64, opt Options) (*Solution, error) {
	if mode == RobustOff {
		return s.Solve(opt)
	}
	initial, err := s.retuneEnvelope(mode, lower, upper, opt.Initial)
	if err != nil {
		return nil, err
	}
	opt.Initial = initial
	return s.Solve(opt)
}

// SolveRobustApprox is SolveRobust routed through the Frank-Wolfe
// approximation path (control's deadline policy under a robust posture):
// the solver is re-tuned onto the chosen envelope edge exactly as in
// SolveRobust, then solved by SolveApprox. The same retune-state caveat
// applies.
func (s *Solver) SolveRobustApprox(mode RobustMode, lower, upper []float64, opt ApproxOptions) (*Solution, error) {
	if mode == RobustOff {
		return s.SolveApprox(opt)
	}
	initial, err := s.retuneEnvelope(mode, lower, upper, opt.Initial)
	if err != nil {
		return nil, err
	}
	opt.Initial = initial
	return s.SolveApprox(opt)
}

// retuneEnvelope validates the load envelope, re-tunes the solver onto
// the chosen edge (clamping the budget when the optimistic edge shrinks
// the maximum samplable rate below it), and re-projects the caller's
// warm start onto the re-tuned feasible set. It returns the (possibly
// replaced, possibly dropped) initial point.
func (s *Solver) retuneEnvelope(mode RobustMode, lower, upper, initial []float64) ([]float64, error) {
	if mode != RobustPessimistic && mode != RobustOptimistic {
		return nil, invalidInput("robust mode", -1, float64(mode), "want off, pessimistic or optimistic")
	}
	if len(lower) != s.n || len(upper) != s.n {
		return nil, fmt.Errorf("core: robust bounds of length %d/%d for %d links", len(lower), len(upper), s.n)
	}
	env := upper
	if mode == RobustOptimistic {
		env = lower
	}
	newMax := 0.0
	for i := range lower {
		if !(lower[i] > 0) || math.IsInf(lower[i], 0) {
			return nil, invalidInput("lower load bound of link", i, lower[i], "want a finite value > 0")
		}
		if math.IsNaN(upper[i]) || math.IsInf(upper[i], 0) || upper[i] < lower[i] {
			return nil, invalidInput("upper load bound of link", i, upper[i], "want a finite value >= the lower bound")
		}
		newMax += s.alpha[i] * env[i]
	}
	// Apply (budget, loads) in the feasibility-safe order, exactly like
	// plan.Compiled.Retune: a shrinking budget first fits the old loads'
	// bound a fortiori; the target budget never grows here.
	theta := s.budget
	if theta > newMax {
		theta = newMax
		if err := s.SetBudget(theta); err != nil {
			return nil, err
		}
	}
	if err := s.SetLoads(env); err != nil {
		return nil, err
	}
	if initial != nil {
		warm, err := s.warmStartRates(initial, nil, s.lower, s.upper)
		if err != nil {
			initial = nil
		} else {
			initial = warm
		}
	}
	return initial, nil
}
