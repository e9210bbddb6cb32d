package plan

import (
	"netsamp/internal/core"
	"netsamp/internal/topology"
)

// BuildScale maps a generated topology.ScaleInstance onto a
// core.Problem. Unlike Build there is no candidate-set indirection:
// every link of a generated instance is a candidate monitor, so
// topology.LinkID and the solver's dense index coincide and the
// instance's CSR routing arrays are handed to the solver as-is (they are
// read-only to both sides; several solvers may share one instance).
// Pairs share one SRE utility object per flow-size class — at 10⁶ pairs,
// per-pair utility allocations would dominate the build.
//
// budget is θ as a sampled packet rate. model selects the effective-rate
// model (nil = core.ModelLinear); single-path instances work with every
// model, ECMP instances only with fraction-aware ones.
func BuildScale(inst *topology.ScaleInstance, budget float64, model core.RateModel) (*core.Problem, error) {
	classes := topology.SizeClasses()
	byClass := make(map[float64]core.Utility, len(classes))
	for _, c := range classes {
		u, err := core.NewSRE(c)
		if err != nil {
			return nil, err
		}
		byClass[c] = u
	}
	utils := make([]core.Utility, inst.NumPairs())
	for k, c := range inst.InvSizes {
		u, ok := byClass[c]
		if !ok {
			// An instance from a newer generator revision: build the odd
			// class out rather than fail.
			var err error
			if u, err = core.NewSRE(c); err != nil {
				return nil, err
			}
			byClass[c] = u
		}
		utils[k] = u
	}
	return &core.Problem{
		Loads:     inst.Loads,
		Budget:    budget,
		Start:     inst.Start,
		Links:     inst.Links,
		Fracs:     inst.Fracs,
		Utilities: utils,
		Model:     model,
	}, nil
}
