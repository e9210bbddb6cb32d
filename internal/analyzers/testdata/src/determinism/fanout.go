package determinism

import (
	"context"
	"fmt"

	"netsamp/internal/engine"
	"netsamp/internal/rng"
)

// Stand-ins for the solver and simulator calls of the code below.

type summary struct{ Average float64 }

type coordinationPoint struct {
	Theta                   float64
	Independent, Coordinate summary
}

func solveRates(theta float64, variant int) (map[int]float64, error) {
	return map[int]float64{variant: theta}, nil
}

func effectiveRates(rates map[int]float64) []float64 { return []float64{rates[0]} }

func experiment(rho float64, r *rng.Source) (summary, error) {
	return summary{Average: rho * r.Float64()}, nil
}

// coordinationStudy is eval.CoordinationStudy as it raced: phase 2's job
// assigns the err that phase 1's fan-out returned, from every
// concurrent job.
func coordinationStudy(ctx context.Context, thetas []float64, workers int, seed uint64) ([]coordinationPoint, error) {
	rates := make([][2]map[int]float64, len(thetas))
	_, err := engine.Map(ctx, engine.Options{Workers: workers}, 2*len(thetas),
		func(_ context.Context, job int, _ *rng.Source) (struct{}, error) {
			variant, i := job/len(thetas), job%len(thetas)
			var err error                                           // ok: declared inside the job
			rates[i][variant], err = solveRates(thetas[i], variant) // ok: the job's own slot of a captured slice
			if err != nil {
				return struct{}{}, fmt.Errorf("θ=%v: %w", thetas[i], err)
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}
	return engine.Map(ctx, engine.Options{Workers: workers, Seed: seed}, len(thetas),
		func(_ context.Context, i int, r *rng.Source) (coordinationPoint, error) {
			point := coordinationPoint{Theta: thetas[i]}
			simulate := func(rho []float64) (summary, error) {
				return experiment(rho[0], r.Split())
			}
			if point.Independent, err = simulate(effectiveRates(rates[i][0])); err != nil { // want `engine\.Map job assigns captured variable err`
				return point, err
			}
			if point.Coordinate, err = simulate(effectiveRates(rates[i][1])); err != nil { // want `engine\.Map job assigns captured variable err`
				return point, err
			}
			return point, nil
		})
}

func fanOutWrites(ctx context.Context, n int) {
	total, count := 0.0, 0
	seen := map[int]bool{}
	out := make([]float64, n)
	var last int
	_, _ = engine.Map(ctx, engine.Options{}, n,
		func(_ context.Context, job int, _ *rng.Source) (int, error) {
			total += float64(job) // want `assigns captured variable total`
			count++               // want `assigns captured variable count`
			last, _ = job, 0      // want `assigns captured variable last`
			seen[job] = true      // want `writes captured map seen by key`
			delete(seen, job-1)   // want `writes captured map seen by key`
			out[job] = 1          // ok: the job's own slot
			local := map[int]bool{}
			local[job] = true // ok: a map built inside the job
			return job, nil
		})
	_, _, _ = total, count, last
}

func runJobs(ctx context.Context) {
	var a, b, shared int
	_ = engine.Run(ctx, engine.Options{},
		func(context.Context, *rng.Source) error {
			a = 1      // ok: only this job uses a
			shared = 1 // want `engine\.Run job assigns captured variable shared`
			return nil
		},
		func(context.Context, *rng.Source) error {
			b = shared // ok: b is this job's own; shared is flagged where written
			return nil
		},
	)
	_, _ = a, b
}
