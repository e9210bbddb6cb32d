package core

// instance is a Problem spelt out pair by pair, the way the tests write
// small instances by hand; problem lays the pairs out as CSR rows.
type instance struct {
	Loads   []float64
	MaxRate []float64
	Budget  float64
	Pairs   []pair
	Model   RateModel
}

// pair is one hand-written OD pair row: the candidate links it
// traverses, its utility, optional ECMP fractions (nil means every
// fraction is 1) and an objective weight (0 means 1).
type pair struct {
	Links   []int
	Utility Utility
	Fracs   []float64
	Weight  float64
}

// problem returns the instance as a Problem with freshly allocated rows.
// Fracs stays nil unless some pair carries fractions, in which case
// single-path rows get explicit 1s; Weights stays nil unless some pair
// is weighted. Loads and MaxRate are shared with the instance.
func (in instance) problem() *Problem {
	p := &Problem{
		Loads:     in.Loads,
		MaxRate:   in.MaxRate,
		Budget:    in.Budget,
		Start:     make([]int32, 1, len(in.Pairs)+1),
		Utilities: make([]Utility, len(in.Pairs)),
		Model:     in.Model,
	}
	hasFracs := false
	for k, pr := range in.Pairs {
		hasFracs = hasFracs || pr.Fracs != nil
		if pr.Weight != 0 && p.Weights == nil {
			p.Weights = make([]float64, len(in.Pairs))
		}
		p.Utilities[k] = pr.Utility
	}
	for k, pr := range in.Pairs {
		for j, l := range pr.Links {
			p.Links = append(p.Links, int32(l))
			if hasFracs {
				f := 1.0
				if pr.Fracs != nil {
					f = pr.Fracs[j]
				}
				p.Fracs = append(p.Fracs, f)
			}
		}
		p.Start = append(p.Start, int32(len(p.Links)))
		if p.Weights != nil {
			p.Weights[k] = pr.Weight
		}
	}
	return p
}
