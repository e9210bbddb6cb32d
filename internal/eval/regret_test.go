package eval

import (
	"bytes"
	"context"
	"math"
	"testing"

	"netsamp/internal/geant"
)

func regretTestConfig() RegretConfig {
	cfg := DefaultRegretConfig()
	cfg.FailRates = []float64{0.1, 0.2}
	cfg.Intervals, cfg.Seed, cfg.Workers = 16, 7, 1
	return cfg
}

// TestRegretRobustDominatesPlugin is the headline robustness claim:
// under drifting loads and a >= 10% per-interval monitor failure rate,
// the uncertainty-aware controller's cumulative utility regret against
// the true-load oracle is strictly below the naive plug-in's.
func TestRegretRobustDominatesPlugin(t *testing.T) {
	s := geant.MustBuild(1)
	res, err := RegretStudy(context.Background(), s, regretTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		// The oracle is an upper bound: no operator solving on estimates
		// may beat re-optimization on the true loads (solver tolerance
		// is the only slack).
		slack := 1e-6 * math.Abs(p.OracleUtility)
		if p.PluginRegret < -slack || p.RobustRegret < -slack {
			t.Errorf("fail %.2f: negative regret (plug-in %v, robust %v)", p.FailRate, p.PluginRegret, p.RobustRegret)
		}
		if !(p.RobustRegret < p.PluginRegret) {
			t.Errorf("fail %.2f: robust regret %v does not beat plug-in regret %v",
				p.FailRate, p.RobustRegret, p.PluginRegret)
		}
		if p.Explored == 0 {
			t.Errorf("fail %.2f: exploration reserve never spent", p.FailRate)
		}
	}
}

// TestRegretDeterministic: the study is bit-identical at any worker
// count and across a mid-run kill/restore of the robust controller.
func TestRegretDeterministic(t *testing.T) {
	s := geant.MustBuild(1)
	base := regretTestConfig()
	base.FailRates = []float64{0.1}
	base.Intervals = 10

	variants := []RegretConfig{base, base, base}
	variants[1].Workers = 4
	variants[2].KillAt = 5
	var results []*RegretResult
	for _, cfg := range variants {
		res, err := RegretStudy(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	ref := results[0].Points[0]
	for i, res := range results[1:] {
		p := res.Points[0]
		same := math.Float64bits(p.OracleUtility) == math.Float64bits(ref.OracleUtility) &&
			math.Float64bits(p.PluginUtility) == math.Float64bits(ref.PluginUtility) &&
			math.Float64bits(p.RobustUtility) == math.Float64bits(ref.RobustUtility) &&
			p.PluginOverspends == ref.PluginOverspends &&
			p.RobustOverspends == ref.RobustOverspends &&
			p.Explored == ref.Explored
		if !same {
			t.Fatalf("variant %d diverged:\n%+v\n%+v", i+1, p, ref)
		}
	}
}

// TestRegretRendering smoke-tests the table and CSV writers.
func TestRegretRendering(t *testing.T) {
	res := &RegretResult{
		Points: []RegretPoint{{
			FailRate: 0.1, OracleUtility: 10, PluginUtility: 8, RobustUtility: 9,
			PluginRegret: 2, RobustRegret: 1, PluginOverspends: 3, Explored: 12,
		}},
		Intervals: 16, Theta: 100000,
	}
	var buf bytes.Buffer
	if err := RenderRegret(&buf, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
	header, rows := RegretCSV(res)
	if len(header) != 9 || len(rows) != 1 || len(rows[0]) != len(header) {
		t.Fatalf("CSV shape: %d cols, %d rows", len(header), len(rows))
	}
}
