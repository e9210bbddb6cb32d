package faults

import (
	"math"
	"testing"

	"netsamp/internal/topology"
)

func TestLoadDriftDisabledIsIdentity(t *testing.T) {
	p := mustPlan(t, Config{Seed: 7})
	for _, tt := range []int{0, 1, 5} {
		if f := p.LoadDrift(tt, 3); f != 1 {
			t.Fatalf("drift disabled: factor %v at t=%d, want 1", f, tt)
		}
	}
	p = mustPlan(t, Config{Seed: 7, DriftVol: 0.2})
	if f := p.LoadDrift(0, 3); f != 1 {
		t.Fatalf("interval 0 factor %v, want 1 (reference)", f)
	}
}

func TestLoadDriftDeterministicAndBounded(t *testing.T) {
	p := mustPlan(t, Config{Seed: 42, DriftVol: 0.3, DriftStep: 0.1})
	q := mustPlan(t, Config{Seed: 42, DriftVol: 0.3, DriftStep: 0.1})
	moved := false
	for tt := 1; tt <= 64; tt++ {
		for link := topology.LinkID(0); link < 5; link++ {
			f := p.LoadDrift(tt, link)
			if f != q.LoadDrift(tt, link) {
				t.Fatalf("drift not deterministic at (t=%d, link=%d)", tt, link)
			}
			if f < driftFloor || f > driftCeil {
				t.Fatalf("drift %v outside [%v, %v]", f, driftFloor, driftCeil)
			}
			if math.Abs(f-1) > 1e-9 {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("drift never moved any load")
	}
	// Distinct links drift independently.
	if p.LoadDrift(8, 0) == p.LoadDrift(8, 1) {
		t.Fatal("two links share a drift path")
	}
	// Step changes fire even without volatility.
	s := mustPlan(t, Config{Seed: 1, DriftStep: 0.5})
	stepped := false
	for tt := 1; tt <= 16 && !stepped; tt++ {
		stepped = math.Abs(s.LoadDrift(tt, 0)-1) > 1e-9
	}
	if !stepped {
		t.Fatal("step-change drift never fired at probability 0.5")
	}
}

func TestLoadDriftValidation(t *testing.T) {
	bad := []Config{
		{DriftVol: -0.1},
		{DriftVol: math.NaN()},
		{DriftVol: math.Inf(1)},
		{DriftStep: 1.5},
		{DriftStep: -0.1},
		{DriftStepMax: 0.5},
		{DriftStepMax: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("case %d: NewPlan accepted %+v", i, cfg)
		}
	}
	p := mustPlan(t, Config{DriftStep: 0.1})
	if got := p.Config().DriftStepMax; got != 4 {
		t.Fatalf("DriftStepMax default %v, want 4", got)
	}
}

func TestConfigCodecV2RoundTripAndV1Compat(t *testing.T) {
	cfg := Config{
		Seed: 99, MonitorCrash: 0.1, MeanOutage: 2.5, MaxOutage: 6,
		RateClamp: 0.05, ClampFactor: 0.7,
		DatagramLoss: 0.01, DatagramDup: 0.02, DatagramReorder: 0.03,
		SolverOverrun: 0.2, DriftVol: 0.15, DriftStep: 0.04, DriftStepMax: 3,
	}
	blob, err := cfg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Fatalf("round trip: %+v != %+v", back, cfg)
	}
	// A version-1 payload (pre-drift) decodes with drift disabled.
	v1 := append([]byte{}, blob...)
	v1[0] = 1
	v1 = v1[:len(v1)-24] // strip the three drift floats
	var old Config
	if err := old.UnmarshalBinary(v1); err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	want := cfg
	want.DriftVol, want.DriftStep, want.DriftStepMax = 0, 0, 0
	if old != want {
		t.Fatalf("v1 decode: %+v, want %+v", old, want)
	}
}
