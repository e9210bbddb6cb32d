package netflow

import (
	"math"
	"testing"
)

// seqStep is one datagram offered to a SeqTracker and what Account must
// report for it: the movement of the lost-record count and whether it
// was a duplicate.
type seqStep struct {
	seq, count uint32
	lostDelta  int64
	dup        bool
}

// accountAll drives a fresh tracker through steps — no socket, no
// collector — checking Account's return on every one, and returns the
// final per-exporter stats.
func accountAll(t *testing.T, steps []seqStep) ExporterStats {
	t.Helper()
	var tr SeqTracker
	var lost int64
	for i, st := range steps {
		lostDelta, dup := tr.Account(st.seq, st.count)
		if lostDelta != st.lostDelta || dup != st.dup {
			t.Fatalf("step %d (seq %d, count %d): lostDelta %d dup %v, want %d %v",
				i, st.seq, st.count, lostDelta, dup, st.lostDelta, st.dup)
		}
		lost += lostDelta
		if got := tr.Stats().LostRecords; int64(got) != lost {
			t.Fatalf("step %d: LostRecords %d, deltas sum to %d", i, got, lost)
		}
	}
	return tr.Stats()
}

func TestExporterStatsGap(t *testing.T) {
	es := accountAll(t, []seqStep{
		{seq: 0, count: 10},
		{seq: 10, count: 5},
		{seq: 25, count: 5, lostDelta: 10}, // records 15..24 lost
	})
	if es.Received != 20 || es.LostRecords != 10 || es.Duplicates != 0 || es.Datagrams != 3 {
		t.Fatalf("stats = %+v", es)
	}
	if lf := es.LossFraction(); math.Abs(lf-10.0/30) > 1e-12 {
		t.Fatalf("LossFraction = %v", lf)
	}
}

func TestExporterStatsDuplicate(t *testing.T) {
	es := accountAll(t, []seqStep{
		{seq: 0, count: 4},
		{seq: 4, count: 4},
		{seq: 4, count: 4, dup: true}, // exact duplicate of the previous datagram
		{seq: 0, count: 4, dup: true}, // stale replay from further back
	})
	if es.Duplicates != 2 || es.LostRecords != 0 || es.Received != 16 {
		t.Fatalf("stats = %+v", es)
	}
}

// TestExporterStatsReorderHealsGap: a late datagram that fills a
// previously counted gap credits the loss back instead of counting as a
// duplicate — reordering alone must not inflate the loss estimate.
func TestExporterStatsReorderHealsGap(t *testing.T) {
	es := accountAll(t, []seqStep{
		{seq: 0, count: 2},
		{seq: 5, count: 3, lostDelta: 3},  // records 2..4 missing so far
		{seq: 2, count: 3, lostDelta: -3}, // the missing datagram arrives late
		// Partial fill: lose 10, recover an interior 4.
		{seq: 18, count: 2, lostDelta: 10}, // records 8..17 missing
		{seq: 12, count: 4, lostDelta: -4}, // interior fill splits the hole
		{seq: 12, count: 4, dup: true},     // the same range again is a duplicate
	})
	if es.LostRecords != 6 || es.Duplicates != 1 {
		t.Fatalf("partial heal wrong: %+v", es)
	}
}

// TestExporterStatsWraparound: FlowSequence is uint32 and wraps; gap
// accounting must survive the wrap.
func TestExporterStatsWraparound(t *testing.T) {
	es := accountAll(t, []seqStep{
		{seq: 0xffffffff - 9, count: 10}, // 10 records before the wrap; next expected: 0
		{seq: 0, count: 5},               // in order across the wrap
		{seq: 8, count: 4, lostDelta: 3}, // expected 5, received 8
	})
	if es.LostRecords != 3 || es.Duplicates != 0 {
		t.Fatalf("gap across wrap = %+v", es)
	}
	// A gap that itself spans the wrap point, then healed from behind it.
	es = accountAll(t, []seqStep{
		{seq: 0xfffffff0, count: 8},
		{seq: 4, count: 2, lostDelta: 12},          // 0xfffffff8..3 missing
		{seq: 0xfffffffe, count: 4, lostDelta: -4}, // refill straddles the wrap
	})
	if es.LostRecords != 8 || es.Duplicates != 0 {
		t.Fatalf("hole across wrap = %+v", es)
	}
}

func TestEstimatorTransportLossInflation(t *testing.T) {
	est, err := NewEstimator(300, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.SetTransportLoss(1); err == nil {
		t.Fatal("loss fraction 1 accepted")
	}
	if err := est.SetTransportLoss(-0.1); err == nil {
		t.Fatal("negative loss accepted")
	}
	if err := est.AddCounts(10, []uint64{100}); err != nil {
		t.Fatal(err)
	}
	// Without loss: estimate = 100 / 0.1 = 1000.
	bins := est.Estimates()
	if len(bins) != 1 || math.Abs(bins[0].Estimate(0)-1000) > 1e-9 {
		t.Fatalf("bins = %+v", bins)
	}
	base := bins[0].RelStdErr(0)
	if math.Abs(base-math.Sqrt(0.9/100)) > 1e-12 {
		t.Fatalf("RelStdErr = %v", base)
	}
	if bins[0].LowConfidence(0) {
		t.Fatal("confident estimate flagged")
	}
	// 50% transport loss: the effective inclusion rate halves, the
	// estimate compensates (×2) and the error bars widen.
	if err := est.SetTransportLoss(0.5); err != nil {
		t.Fatal(err)
	}
	bins = est.Estimates()
	if math.Abs(bins[0].Estimate(0)-2000) > 1e-9 {
		t.Fatalf("loss-compensated estimate = %v", bins[0].Estimate(0))
	}
	if bins[0].RelStdErr(0) <= base {
		t.Fatalf("variance not inflated: %v <= %v", bins[0].RelStdErr(0), base)
	}
}

func TestEstimatorLowConfidenceFlag(t *testing.T) {
	est, err := NewEstimator(300, []float64{0.001, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.AddCounts(0, []uint64{1, 0}); err != nil {
		t.Fatal(err)
	}
	bins := est.Estimates()
	// One sampled packet at ρ = 0.001: RelStdErr ≈ 1 → flagged.
	if !bins[0].LowConfidence(0) {
		t.Fatalf("sparse estimate not flagged: %+v", bins[0])
	}
	// Unmonitored pair (ρ = 0): +Inf error, flagged, estimate 0.
	if !bins[0].LowConfidence(1) || !math.IsInf(bins[0].RelStdErr(1), 1) || bins[0].Estimate(1) != 0 {
		t.Fatalf("unmonitored pair = %+v", bins[0])
	}
}
