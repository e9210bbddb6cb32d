package main

import (
	"context"
	"flag"
	"os"

	"netsamp/internal/eval"
	"netsamp/internal/geant"
)

// cmdCoordinate runs the coordinated-vs-independent sampling study: the
// same GEANT instance solved under the independent (product) and
// coordinated (additive, hash-partitioned) rate models across the θ
// grid, reporting deployed coverages, simulated accuracies, and the
// coverage gained by coordinating the independent optimum's own rates.
func cmdCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	trials := fs.Int("trials", 20, "sampling experiments per OD pair and θ")
	csv := fs.Bool("csv", false, "emit CSV instead of the table")
	seed := scenarioFlags(fs)
	expSeed := fs.Uint64("expseed", 42, "seed of the sampling experiments")
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	points, err := eval.CoordinationStudy(context.Background(), s, eval.DefaultThetas(), *trials, *expSeed, *workers)
	if err != nil {
		return err
	}
	if *csv {
		header, rows := eval.CoordinationCSV(points)
		return eval.WriteCSV(os.Stdout, header, rows)
	}
	return eval.RenderCoordination(os.Stdout, points)
}
