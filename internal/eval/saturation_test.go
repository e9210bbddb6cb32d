package eval

import (
	"reflect"
	"testing"
)

// TestSaturationGracefulDegradation: the step-mode sweep shows the
// tentpole property — delivered goodput saturates at capacity while the
// Overload bucket absorbs the excess — and the whole study is
// bit-identical across runs (it sits inside the replay fence).
func TestSaturationGracefulDegradation(t *testing.T) {
	cfg := DefaultSaturationConfig()
	cfg.Ticks, cfg.Seed = 60, 11
	res, err := SaturationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points, want 3 (1x/2x/4x)", len(res.Points))
	}
	capacity := uint64(res.Shards * res.CapacityPerTick * res.Ticks)
	for i, p := range res.Points {
		if p.Received == 0 || p.Delivered == 0 {
			t.Fatalf("%gx: empty point: %+v", p.Multiple, p)
		}
		if p.Bins == 0 {
			t.Fatalf("%gx: no estimator bins — survivors never reached the estimation stage", p.Multiple)
		}
		if i == 0 {
			continue
		}
		prev := res.Points[i-1]
		if !(p.DropFraction > prev.DropFraction) {
			t.Fatalf("drop fraction not increasing: %g at %gx, %g at %gx",
				prev.DropFraction, prev.Multiple, p.DropFraction, p.Multiple)
		}
		if !(p.DeliveredFraction < prev.DeliveredFraction) {
			t.Fatalf("delivered fraction not decreasing: %g at %gx, %g at %gx",
				prev.DeliveredFraction, prev.Multiple, p.DeliveredFraction, p.Multiple)
		}
		// Saturation, not collapse: absolute goodput never shrinks under
		// more offered load, and never exceeds the processing budget by
		// more than the rings' drain allowance.
		if p.Delivered < prev.Delivered {
			t.Fatalf("goodput collapsed: %d at %gx, %d at %gx",
				prev.Delivered, prev.Multiple, p.Delivered, p.Multiple)
		}
		slack := uint64(res.Shards * 256 * 34) // RingSize datagrams per shard drained at the end
		if p.Delivered > capacity+slack {
			t.Fatalf("%gx: delivered %d exceeds capacity %d + drain slack %d", p.Multiple, p.Delivered, capacity, slack)
		}
	}
	last := res.Points[len(res.Points)-1]
	if last.DroppedOverload == 0 {
		t.Fatal("4x offered load shed nothing")
	}
	if last.DroppedShutdown != 0 {
		t.Fatalf("%d records dropped at shutdown — the pre-close drain missed them", last.DroppedShutdown)
	}

	// Bit-identical across runs.
	again, err := SaturationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("study not deterministic:\n%+v\n%+v", res, again)
	}
}

// TestSaturationRejectsBadMultiple: non-positive multiples are refused.
func TestSaturationRejectsBadMultiple(t *testing.T) {
	cfg := DefaultSaturationConfig()
	cfg.Ticks, cfg.Multiples = 1, []float64{1, 0}
	_, err := SaturationStudy(cfg)
	if err == nil {
		t.Fatal("zero multiple accepted")
	}
}
