package eval

import (
	"context"
	"errors"
	"testing"

	"netsamp/internal/geant"
)

// TestStudyParamErrors: a parameter out of range is a *ParamError naming
// the study's flag, for a direct call as for the CLI.
func TestStudyParamErrors(t *testing.T) {
	s := geant.MustBuild(1)
	degrade := func(edit func(*DegradeConfig)) error {
		cfg := DefaultDegradeConfig()
		edit(&cfg)
		_, err := DegradationStudy(context.Background(), s, cfg)
		return err
	}
	regret := func(edit func(*RegretConfig)) error {
		cfg := DefaultRegretConfig()
		edit(&cfg)
		_, err := RegretStudy(context.Background(), s, cfg)
		return err
	}
	saturation := func(edit func(*SaturationConfig)) error {
		cfg := DefaultSaturationConfig()
		edit(&cfg)
		_, err := SaturationStudy(cfg)
		return err
	}
	for _, c := range []struct {
		flag string
		err  error
	}{
		{"intervals", degrade(func(c *DegradeConfig) { c.Intervals = 0 })},
		{"overrun", degrade(func(c *DegradeConfig) { c.OverrunRate = 2 })},
		{"drift", regret(func(c *RegretConfig) { c.DriftVol = -0.1 })},
		{"step", regret(func(c *RegretConfig) { c.DriftStep = 1.5 })},
		{"explore", regret(func(c *RegretConfig) { c.ExplorationFrac = 0.9 })},
		{"widen", regret(func(c *RegretConfig) { c.WidenFactor = 0.5 })},
		{"ticks", saturation(func(c *SaturationConfig) { c.Ticks = 0 })},
	} {
		var perr *ParamError
		if !errors.As(c.err, &perr) || perr.Flag != c.flag {
			t.Errorf("-%s out of range: got %v, want a *ParamError for -%s", c.flag, c.err, c.flag)
		}
	}
}

// TestSaturationZeroDisables: in a config, zero means zero — no wire
// loss and no duplicates — not "use the default".
func TestSaturationZeroDisables(t *testing.T) {
	cfg := DefaultSaturationConfig()
	cfg.Ticks, cfg.Seed = 20, 3
	cfg.LossP, cfg.DupP = 0, 0
	res, err := SaturationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.LostUpstream != 0 || p.Duplicates != 0 {
			t.Errorf("%gx: loss and duplicates off, got %d lost and %d duplicates", p.Multiple, p.LostUpstream, p.Duplicates)
		}
	}
}
