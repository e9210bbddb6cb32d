package netflow

import (
	"testing"

	"netsamp/internal/packet"
	"netsamp/internal/rng"
)

// coordKey builds a distinct flow key for index i.
func coordKey(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr(0x0a000000 + i), Dst: packet.Addr(0xc0a80000 + i*7),
		SrcPort: uint16(1024 + i), DstPort: 443, Proto: packet.ProtoTCP,
	}
}

func TestNewCoordConfigValidation(t *testing.T) {
	classify := func(packet.FiveTuple) (int, bool) { return 0, true }
	full := []packet.HashRange{{Lo: 0, Hi: ^uint64(0)}}
	if _, err := NewCoordConfig(nil, full, []float64{0.5}); err == nil {
		t.Error("nil classifier accepted")
	}
	if _, err := NewCoordConfig(classify, full, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewCoordConfig(classify, nil, nil); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewCoordConfig(classify, full, []float64{1.5}); err == nil {
		t.Error("coin > 1 accepted")
	}
	if _, err := NewCoordConfig(classify, []packet.HashRange{packet.EmptyHashRange}, []float64{0.5}); err == nil {
		t.Error("positive coin with empty range accepted")
	}
	if _, err := NewCoordConfig(classify, full, []float64{0.5}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCoordDecide(t *testing.T) {
	// Pair 0: this monitor owns the lower half of the hash space at coin
	// 0.004. Pair 1: the monitor owns nothing. Unclassified flows fall
	// back to the base rate.
	classify := func(k packet.FiveTuple) (int, bool) {
		switch k.DstPort {
		case 1:
			return 0, true
		case 2:
			return 1, true
		}
		return 0, false
	}
	half := uint64(1) << 63
	cc, err := NewCoordConfig(classify,
		[]packet.HashRange{{Lo: 0, Hi: half - 1}, packet.EmptyHashRange},
		[]float64{0.004, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Sweep keys of pair 0: owned ones get the coin, the others are
	// refused outright (another monitor's flows).
	owned, refused := 0, 0
	for i := 0; i < 2000; i++ {
		k := coordKey(i)
		k.DstPort = 1
		rate, consider := cc.Decide(k, 0.1)
		inRange := k.FastHash() < half
		switch {
		case inRange && (!consider || rate != 0.004):
			t.Fatalf("owned key %d: rate=%v consider=%v", i, rate, consider)
		case !inRange && consider:
			t.Fatalf("foreign key %d considered", i)
		}
		if inRange {
			owned++
		} else {
			refused++
		}
	}
	if owned == 0 || refused == 0 {
		t.Fatalf("degenerate hash split: %d owned, %d refused", owned, refused)
	}
	// Pair 1: empty range refuses everything.
	k := coordKey(7)
	k.DstPort = 2
	if _, consider := cc.Decide(k, 0.1); consider {
		t.Fatal("empty range considered a flow")
	}
	// Unclassified: base rate passes through.
	k = coordKey(8)
	k.DstPort = 9
	if rate, consider := cc.Decide(k, 0.1); !consider || rate != 0.1 {
		t.Fatalf("unclassified flow: rate=%v consider=%v", rate, consider)
	}
}

// TestCoordinatedTablesPartitionFlows is the end-to-end partition
// property: two monitors on one pair's path, configured with
// complementary ranges at coin 1, together sample every flow of the
// pair exactly once — no double-sample, no gap.
func TestCoordinatedTablesPartitionFlows(t *testing.T) {
	classify := func(k packet.FiveTuple) (int, bool) { return 0, true }
	ranges := make([]packet.HashRange, 2)
	packet.PartitionHashSpace(ranges, []float64{0.003, 0.001})
	mk := func(id uint16, r packet.HashRange) *FlowTable {
		cc, err := NewCoordConfig(classify, []packet.HashRange{r}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		return NewFlowTable(id, Config{
			SamplingRate: 0.5, IdleTimeout: 30, Coordination: cc,
		}, rng.New(uint64(id)))
	}
	m1 := mk(1, ranges[0])
	m2 := mk(2, ranges[1])
	for i := 0; i < 3000; i++ {
		k := coordKey(i)
		s1, _ := m1.Observe(k, 100, 0)
		s2, _ := m2.Observe(k, 100, 0)
		if s1 && s2 {
			t.Fatalf("flow %d sampled by both monitors", i)
		}
		if !s1 && !s2 {
			t.Fatalf("flow %d sampled by neither monitor (coin 1)", i)
		}
	}
	st1, st2 := m1.Stats(), m2.Stats()
	if st1.SampledPackets+st2.SampledPackets != 3000 {
		t.Fatalf("sampled %d+%d, want 3000", st1.SampledPackets, st2.SampledPackets)
	}
	// The split should roughly follow the 3:1 share ratio.
	if st1.SampledPackets < st2.SampledPackets {
		t.Fatalf("range widths ignored: %d vs %d", st1.SampledPackets, st2.SampledPackets)
	}
}

// TestCoordinationNilKeepsIndependentPath: a table without a CoordConfig
// must behave exactly as before — one Bernoulli draw per packet.
func TestCoordinationNilKeepsIndependentPath(t *testing.T) {
	plain := NewFlowTable(1, Config{SamplingRate: 0.25, IdleTimeout: 30}, rng.New(99))
	var sampledPlain []bool
	for i := 0; i < 500; i++ {
		s, _ := plain.Observe(coordKey(i), 100, 0)
		sampledPlain = append(sampledPlain, s)
	}
	again := NewFlowTable(1, Config{SamplingRate: 0.25, IdleTimeout: 30, Coordination: nil}, rng.New(99))
	for i := 0; i < 500; i++ {
		if s, _ := again.Observe(coordKey(i), 100, 0); s != sampledPlain[i] {
			t.Fatalf("packet %d: decision changed with nil Coordination", i)
		}
	}
}
