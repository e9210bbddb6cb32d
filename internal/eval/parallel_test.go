package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/geant"
)

// These tests pin the engine's determinism contract at the study level:
// every parallelized experiment must produce byte-identical results
// whether it runs on one worker or eight. Each job's RNG stream is a
// pure function of the master seed and the job index, and aggregation
// happens in job order, so worker count and scheduling cannot leak into
// the output.

func marshalJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFigure2DeterministicAcrossWorkers(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{50000, 100000, 200000}
	serial, err := Figure2(context.Background(), s, thetas, 5, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure2(context.Background(), s, thetas, 5, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalJSON(t, serial), marshalJSON(t, parallel)) {
		t.Fatal("Figure2 differs between workers=1 and workers=8")
	}
}

func TestConvergenceDeterministicAcrossWorkers(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ConvergenceStudy(context.Background(), s, 24, 42, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ConvergenceStudy(context.Background(), s, 24, 42, core.Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalJSON(t, serial), marshalJSON(t, parallel)) {
		t.Fatal("ConvergenceStudy differs between workers=1 and workers=8")
	}
}

func TestTMStudyDeterministicAcrossWorkers(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := TMStudy(context.Background(), s, 100000, 5, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TMStudy(context.Background(), s, 100000, 5, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalJSON(t, serial), marshalJSON(t, parallel)) {
		t.Fatal("TMStudy differs between workers=1 and workers=8")
	}
}

func TestDynamicStudyDeterministicAcrossWorkers(t *testing.T) {
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := DynamicStudy(context.Background(), s, 8, 100000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DynamicStudy(context.Background(), s, 8, 100000, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalJSON(t, serial), marshalJSON(t, parallel)) {
		t.Fatal("DynamicStudy differs between workers=1 and workers=8")
	}
}
