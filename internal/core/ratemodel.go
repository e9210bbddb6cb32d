package core

import "fmt"

// RateModel maps a per-link sampling-rate vector to each OD pair's
// effective per-packet inclusion probability ρ_k, and supplies the
// derivatives the gradient-projection solver needs (value, gradient
// accumulation and line-search terms). It replaces the former
// Problem.Exact flag: the model is data, not a branch, so new sampling
// disciplines plug in without touching the solver.
//
// Three models ship with core:
//
//   - ModelLinear — the paper's working approximation (7),
//     ρ_k = Σ f_ki·p_i, valid for the low rates and short monitored
//     paths the optimum exhibits (Section IV-B).
//   - ModelIndependentExact — the exact product model (1),
//     ρ_k = 1 − Π(1−p_i), for monitors sampling independently.
//   - ModelCoordinated — cSamp-style coordinated sampling: monitors on
//     a path own disjoint hash ranges of flow space, so inclusion
//     probabilities add by construction. The solver-side surrogate is
//     identical to ModelLinear (the unclamped sum keeps the objective
//     concave); Deployed maps the surrogate onto the realized rate
//     min(1, ρ) once ranges are assigned (see internal/plan.Coordinate).
//
// The computational hooks are unexported: implementations live in core,
// where the solver can rely on their bitwise behavior. External callers
// select a model by identity (the Model* singletons or ModelByName) and
// interact through Name, Additive, SupportsFracs and Deployed.
type RateModel interface {
	// Name is the model's stable identity, used in cache keys, snapshot
	// payloads and CLI flags: "linear", "independent-exact",
	// "coordinated".
	Name() string
	// Additive reports whether ρ_k is an affine function of the rates
	// (linear and coordinated). Additive models get the Newton-KKT
	// second-order step and are accepted by SolveMaxMinExact.
	Additive() bool
	// SupportsFracs reports whether the model accepts ECMP routing
	// fractions. The product model assumes deterministic single-path
	// routing and rejects them.
	SupportsFracs() bool
	// Deployed maps the solver's surrogate rate ρ_k onto the inclusion
	// probability the deployed sampling discipline realizes. Identity
	// for linear and independent-exact; min(1, ρ) for coordinated
	// (disjoint ranges cannot over-sample a packet).
	Deployed(rho float64) float64

	// The three hooks run over one row of the compiled incidence: links
	// and fracs are the pair's subslices of the flat CSR arrays (fracs nil
	// when no pair has fractions).

	// pairRho returns ρ_k at rates.
	pairRho(links []int32, fracs, rates []float64) float64
	// accumGrad adds d·∂ρ_k/∂p_i to out for each link of the row, where
	// the caller has evaluated rho = pairRho and d = w·M'(ρ).
	accumGrad(links []int32, fracs, rates []float64, rho, d float64, out []float64)
	// lineTerms returns this pair's contribution to φ'(t) and φ''(t) for
	// φ(t) = Σ_k w_k·M_k(ρ_k(rates + t·dir)).
	lineTerms(links []int32, fracs, rates, dir []float64, t float64, u Utility, w float64) (d1, d2 float64)
}

// The models are package singletons so selecting one never constructs
// (or boxes) a value on a hot path, and identity comparisons are valid.
var (
	// ModelLinear is the paper's working approximation (7).
	ModelLinear RateModel = linearModel{}
	// ModelIndependentExact is the exact independent-sampling product
	// model (1).
	ModelIndependentExact RateModel = independentExactModel{}
	// ModelCoordinated is the coordinated (disjoint hash range) model.
	ModelCoordinated RateModel = coordinatedModel{}
)

// ModelByName resolves a model identity string (see RateModel.Name) to
// its singleton. "exact" is accepted as an alias of "independent-exact"
// (the former -exact CLI flag).
func ModelByName(name string) (RateModel, error) {
	switch name {
	case "linear":
		return ModelLinear, nil
	case "independent-exact", "exact":
		return ModelIndependentExact, nil
	case "coordinated":
		return ModelCoordinated, nil
	}
	return nil, fmt.Errorf("core: unknown rate model %q (want linear, independent-exact or coordinated)", name)
}

// modelOrLinear resolves the nil-means-linear convention Problem.Model
// and plan.Input.Model share.
//
//netsamp:noalloc
func modelOrLinear(m RateModel) RateModel {
	if m == nil {
		return ModelLinear
	}
	return m
}

// ModelName returns m's identity, treating nil as the default linear
// model.
func ModelName(m RateModel) string { return modelOrLinear(m).Name() }

// additiveModel implements the shared math of the two additive models:
// ρ_k = Σ f_ki·p_i, constant gradient, zero path curvature.
type additiveModel struct{}

//netsamp:noalloc
func (additiveModel) Additive() bool      { return true }
func (additiveModel) SupportsFracs() bool { return true }

//netsamp:noalloc
func (additiveModel) Deployed(rho float64) float64 { return rho }

//netsamp:noalloc
func (additiveModel) pairRho(links []int32, fracs, rates []float64) float64 {
	sum := 0.0
	if fracs != nil {
		for j, i := range links {
			sum += fracs[j] * rates[i]
		}
	} else {
		for _, i := range links {
			sum += rates[i]
		}
	}
	return sum
}

//netsamp:noalloc
func (additiveModel) accumGrad(links []int32, fracs, rates []float64, rho, d float64, out []float64) {
	if fracs != nil {
		for j, i := range links {
			out[i] += d * fracs[j]
		}
	} else {
		for _, i := range links {
			out[i] += d
		}
	}
}

//netsamp:noalloc
func (additiveModel) lineTerms(links []int32, fracs, rates, dir []float64, t float64, u Utility, w float64) (d1, d2 float64) {
	rho, q := 0.0, 0.0
	for j, i := range links {
		f := 1.0
		if fracs != nil {
			f = fracs[j]
		}
		rho += f * (rates[i] + t*dir[i])
		q += f * dir[i]
	}
	d1 = w * u.Deriv(rho) * q
	d2 = w * u.Curv(rho) * q * q
	return d1, d2
}

// linearModel is the paper's working approximation (7).
type linearModel struct{ additiveModel }

func (linearModel) Name() string { return "linear" }

// coordinatedModel shares the additive solver math with linearModel —
// under disjoint hash ranges the per-packet inclusion probability is
// Σ f_ki·p_i by construction, clamped at 1 only at deployment time (the
// unclamped surrogate keeps the objective concave and the optimizer's
// trajectory bitwise-identical to the linear model's).
type coordinatedModel struct{ additiveModel }

func (coordinatedModel) Name() string { return "coordinated" }

//netsamp:noalloc
func (coordinatedModel) Deployed(rho float64) float64 {
	if rho > 1 {
		return 1
	}
	return rho
}

// independentExactModel is the exact product model (1) for monitors
// sampling independently: ρ_k = 1 − Π(1−p_i). It assumes deterministic
// single-path routing (no ECMP fractions), and its Hessian has
// off-diagonal ∂²ρ/∂p_i∂p_j coupling, so the solver's Newton-KKT step
// is disabled for it.
type independentExactModel struct{}

func (independentExactModel) Name() string { return "independent-exact" }

//netsamp:noalloc
func (independentExactModel) Additive() bool      { return false }
func (independentExactModel) SupportsFracs() bool { return false }

//netsamp:noalloc
func (independentExactModel) Deployed(rho float64) float64 { return rho }

//netsamp:noalloc
func (independentExactModel) pairRho(links []int32, fracs, rates []float64) float64 {
	q := 1.0
	for _, i := range links {
		q *= 1 - rates[i]
	}
	return 1 - q
}

//netsamp:noalloc
func (independentExactModel) accumGrad(links []int32, fracs, rates []float64, rho, d float64, out []float64) {
	// ∂ρ_k/∂p_i = Π_{j≠i}(1−p_j) = (1−ρ_k)/(1−p_i).
	for _, i := range links {
		den := 1 - rates[i]
		if den < 1e-12 {
			den = 1e-12
		}
		out[i] += d * (1 - rho) / den
	}
}

//netsamp:noalloc
func (independentExactModel) lineTerms(links []int32, fracs, rates, dir []float64, t float64, u Utility, w float64) (d1, d2 float64) {
	g := 1.0
	h := 0.0  // Σ s_i/(1−x_i)
	h2 := 0.0 // Σ s_i²/(1−x_i)²
	for _, i := range links {
		x := 1 - rates[i] - t*dir[i]
		if x < 1e-12 {
			x = 1e-12
		}
		g *= x
		term := dir[i] / x
		h += term
		h2 += term * term
	}
	rho := 1 - g
	rp := g * h         // ρ'(t)
	rpp := g*h2 - g*h*h // ρ''(t)
	du := w * u.Deriv(rho)
	cu := w * u.Curv(rho)
	d1 = du * rp
	d2 = cu*rp*rp + du*rpp
	return d1, d2
}

// guard: the singletons must keep satisfying the interface even as the
// hook set evolves.
var _ = []RateModel{linearModel{}, coordinatedModel{}, independentExactModel{}}
