package faults

import (
	"errors"
	"math"
	"strings"
	"testing"

	"netsamp/internal/state"
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

// TestConfigCodecRejectsOldVersions: the current version round-trips
// exactly; version 1 and 2 payloads (which carried the deleted
// rate-clamp fields) are an unknown-version state.ErrCodec, never a
// shifted decode.
func TestConfigCodecRejectsOldVersions(t *testing.T) {
	cfg := Config{
		Seed: 99, MonitorCrash: 0.1, MeanOutage: 2.5, MaxOutage: 6,
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
	// Old layouts, at their true lengths: v2 had two more floats than
	// v3, v1 one fewer (no drift fields, but the two clamp floats).
	for _, o := range []struct {
		v    byte
		size int
	}{{1, len(blob) - 8}, {2, len(blob) + 16}} {
		old := make([]byte, o.size)
		copy(old, blob)
		old[0] = o.v
		var c Config
		if err := c.UnmarshalBinary(old); !errors.Is(err, state.ErrCodec) || !strings.Contains(err.Error(), "unknown config version") {
			t.Errorf("v%d payload: err = %v, want an unknown-version state.ErrCodec", o.v, err)
		}
	}
}
