package eval

import (
	"bytes"
	"context"
	"testing"
)

// TestDegradationStudyGracefulDominates is the study's acceptance check:
// at monitor-failure rates of 10% and above, the graceful operator must
// strictly dominate the naive one — higher achieved utility AND lower
// squared relative estimation error — at every grid point. With
// failures off, loss compensation alone must keep graceful's error at or
// below naive's.
func TestDegradationStudyGracefulDominates(t *testing.T) {
	s := scenario(t)
	cfg := DefaultDegradeConfig()
	cfg.Seed = 7
	res, err := DegradationStudy(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("grid size = %d, want 9", len(res.Points))
	}
	for _, p := range res.Points {
		if p.BudgetViolations != 0 {
			t.Errorf("fail=%.2f loss=%.2f: %d budget violations", p.FailRate, p.LossRate, p.BudgetViolations)
		}
		if p.FailRate >= 0.1 {
			if p.GracefulUtility <= p.NaiveUtility {
				t.Errorf("fail=%.2f loss=%.2f: graceful utility %.4f <= naive %.4f",
					p.FailRate, p.LossRate, p.GracefulUtility, p.NaiveUtility)
			}
			if p.GracefulSqErr >= p.NaiveSqErr {
				t.Errorf("fail=%.2f loss=%.2f: graceful sqerr %.6f >= naive %.6f",
					p.FailRate, p.LossRate, p.GracefulSqErr, p.NaiveSqErr)
			}
		}
		if p.FailRate == 0 && p.GracefulSqErr > p.NaiveSqErr*(1+1e-9) {
			t.Errorf("loss=%.2f: loss compensation worse than blind: %.6f > %.6f",
				p.LossRate, p.GracefulSqErr, p.NaiveSqErr)
		}
	}
	if res.Points[0].NaiveUnmeasured != 0 {
		t.Errorf("healthy point reports %d unmeasured pair-intervals", res.Points[0].NaiveUnmeasured)
	}
}

// TestDegradationStudyDeterministic: the rendered study must be
// byte-identical across worker counts at a fixed seed.
func TestDegradationStudyDeterministic(t *testing.T) {
	s := scenario(t)
	render := func(workers int) string {
		t.Helper()
		cfg := DefaultDegradeConfig()
		cfg.Seed, cfg.Intervals, cfg.Workers = 42, 4, workers
		res, err := DegradationStudy(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RenderDegrade(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Fatalf("study depends on worker count:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
	}
}

func TestDegradeCSV(t *testing.T) {
	s := scenario(t)
	cfg := DefaultDegradeConfig()
	cfg.Seed, cfg.Intervals = 3, 2
	cfg.FailRates, cfg.LossRates = []float64{0, 0.1}, []float64{0.05}
	res, err := DegradationStudy(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := DegradeCSV(res)
	if len(header) != 9 || len(rows) != 2 {
		t.Fatalf("csv shape = %d cols x %d rows", len(header), len(rows))
	}
	for _, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("ragged csv row: %v", row)
		}
	}
}
