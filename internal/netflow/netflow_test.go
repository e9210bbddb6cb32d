package netflow

import (
	"errors"
	"math"
	"testing"

	"netsamp/internal/packet"
	"netsamp/internal/prefix"
	"netsamp/internal/rng"
)

func key(n byte) packet.FiveTuple {
	return packet.FiveTuple{
		Src:     packet.AddrFrom4(10, 0, 0, n),
		Dst:     packet.AddrFrom4(192, 168, 0, 1),
		SrcPort: 1000 + uint16(n),
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}
}

func TestFlowTableSamplesAllAtRateOne(t *testing.T) {
	ft := NewFlowTable(1, Config{SamplingRate: 1, IdleTimeout: 30}, rng.New(1))
	for i := 0; i < 10; i++ {
		sampled, evicted := ft.Observe(key(1), 100, uint32(i))
		if !sampled {
			t.Fatal("rate-1 sampler dropped a packet")
		}
		if evicted != nil {
			t.Fatal("unexpected eviction")
		}
	}
	s := ft.Stats()
	if s.ObservedPackets != 10 || s.SampledPackets != 10 || s.ActiveFlows != 1 {
		t.Fatalf("stats = %+v", s)
	}
	recs := ft.Flush()
	if len(recs) != 1 {
		t.Fatalf("flush = %d records", len(recs))
	}
	r := recs[0]
	if r.Packets != 10 || r.Bytes != 1000 || r.Start != 0 || r.End != 9 || r.MonitorID != 1 {
		t.Fatalf("record = %+v", r)
	}
}

func TestFlowTableSamplingRate(t *testing.T) {
	ft := NewFlowTable(1, Config{SamplingRate: 0.1, IdleTimeout: 30}, rng.New(2))
	const n = 100000
	for i := 0; i < n; i++ {
		ft.Observe(key(byte(i%200)), 100, 0)
	}
	s := ft.Stats()
	rate := float64(s.SampledPackets) / float64(s.ObservedPackets)
	if math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("empirical sampling rate = %v", rate)
	}
}

func TestFlowTableIdleTimeout(t *testing.T) {
	ft := NewFlowTable(1, Config{SamplingRate: 1, IdleTimeout: 30}, rng.New(3))
	ft.Observe(key(1), 100, 0)
	ft.Observe(key(2), 100, 25)
	if recs := ft.Expire(29); len(recs) != 0 {
		t.Fatalf("premature expiry: %v", recs)
	}
	recs := ft.Expire(30) // key(1) idle 30s, key(2) idle 5s
	if len(recs) != 1 || recs[0].Key != key(1) {
		t.Fatalf("expiry = %+v", recs)
	}
	if s := ft.Stats(); s.ActiveFlows != 1 || s.ExpiredFlows != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFlowTableActiveTimeout(t *testing.T) {
	ft := NewFlowTable(1, Config{SamplingRate: 1, IdleTimeout: 1000, ActiveTimeout: 60}, rng.New(4))
	ft.Observe(key(1), 100, 0)
	ft.Observe(key(1), 100, 59) // still active
	if recs := ft.Expire(59); len(recs) != 0 {
		t.Fatal("active timeout fired early")
	}
	recs := ft.Expire(60)
	if len(recs) != 1 || recs[0].Packets != 2 {
		t.Fatalf("active timeout records = %+v", recs)
	}
}

func TestFlowTableEviction(t *testing.T) {
	ft := NewFlowTable(1, Config{SamplingRate: 1, IdleTimeout: 1000, MaxEntries: 2}, rng.New(5))
	ft.Observe(key(1), 100, 0)
	ft.Observe(key(2), 100, 1)
	_, evicted := ft.Observe(key(3), 100, 2)
	if len(evicted) != 1 || evicted[0].Key != key(1) {
		t.Fatalf("evicted = %+v (want oldest, key 1)", evicted)
	}
	if s := ft.Stats(); s.EvictedFlows != 1 || s.ActiveFlows != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFlowTablePacketConservation: with rate-1 sampling, every observed
// packet appears in exactly one exported record.
func TestFlowTablePacketConservation(t *testing.T) {
	ft := NewFlowTable(1, Config{SamplingRate: 1, IdleTimeout: 5, ActiveTimeout: 17, MaxEntries: 8}, rng.New(6))
	r := rng.New(7)
	var offered, exported uint64
	collect := func(recs []packet.Record) {
		for _, rec := range recs {
			exported += rec.Packets
		}
	}
	for now := uint32(0); now < 200; now++ {
		for i := 0; i < 20; i++ {
			_, ev := ft.Observe(key(byte(r.Intn(30))), 100, now)
			offered++
			collect(ev)
		}
		collect(ft.Expire(now))
	}
	collect(ft.Flush())
	if offered != exported {
		t.Fatalf("packet conservation violated: offered %d, exported %d", offered, exported)
	}
}

func TestEstimatorBinsAndRenormalizes(t *testing.T) {
	est, err := NewEstimator(300, []float64{0.01, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		start  uint32
		counts []uint64
	}{
		{0, []uint64{10, 0}},
		{299, []uint64{5, 0}}, // same bin
		{100, []uint64{0, 8}}, // same bin, other OD
		{300, []uint64{7, 0}}, // next bin
	} {
		if err := est.AddCounts(in.start, in.counts); err != nil {
			t.Fatal(err)
		}
	}
	bins := est.Estimates()
	if len(bins) != 2 {
		t.Fatalf("bins = %d", len(bins))
	}
	b0 := bins[0]
	if b0.Start != 0 || b0.Sampled[0] != 15 || b0.Sampled[1] != 8 {
		t.Fatalf("bin0 = %+v", b0)
	}
	if math.Abs(b0.Estimate(0)-1500) > 1e-9 || math.Abs(b0.Estimate(1)-400) > 1e-9 {
		t.Fatalf("bin0 estimates = [%v %v]", b0.Estimate(0), b0.Estimate(1))
	}
	if bins[1].Start != 300 || bins[1].Sampled[0] != 7 {
		t.Fatalf("bin1 = %+v", bins[1])
	}
}

func TestEstimatorZeroRho(t *testing.T) {
	est, err := NewEstimator(300, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.AddCounts(0, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	bins := est.Estimates()
	if len(bins) != 1 || bins[0].Estimate(0) != 0 {
		t.Fatalf("zero-rho estimate = %+v", bins)
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0, []float64{1}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewEstimator(300, nil); err == nil {
		t.Fatal("no pairs accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		_, err := NewEstimator(300, []float64{0.5, bad})
		var re *RhoError
		if !errors.As(err, &re) || re.Pair != 1 {
			t.Fatalf("rho %v: err = %v, want *RhoError for pair 1", bad, err)
		}
	}
}

// TestEstimatorClampsRho: ρ is an inclusion probability. A caller
// passing the solver's unclamped additive surrogate (> 1) gets it
// clamped to what the monitors deploy, so the error bar is a number —
// sqrt of a negative (1−ρ) would be NaN, and NaN > threshold is false:
// garbage flagged as trustworthy.
func TestEstimatorClampsRho(t *testing.T) {
	est, err := NewEstimator(300, []float64{1.4})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.AddCounts(0, []uint64{50}); err != nil {
		t.Fatal(err)
	}
	bins := est.Estimates()
	if len(bins) != 1 {
		t.Fatalf("%d bins", len(bins))
	}
	if bins[0].Estimate(0) != 50 {
		t.Fatalf("estimate %v, want 50 (rho clamped to 1)", bins[0].Estimate(0))
	}
	if bins[0].RelStdErr(0) != 0 || bins[0].LowConfidence(0) {
		t.Fatalf("census estimate: RelStdErr %v LowConfidence %v, want 0/false",
			bins[0].RelStdErr(0), bins[0].LowConfidence(0))
	}
}

// TestEstimatorAddCounts pins the shard-merge entry point: repeated
// merges into one interval add (shards flush deltas, not totals), and a
// mis-sized slice is rejected without touching the bins.
func TestEstimatorAddCounts(t *testing.T) {
	est, err := NewEstimator(300, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, counts := range [][]uint64{{10, 0}, {0, 4}, {3, 0}} {
		if err := est.AddCounts(10, counts); err != nil {
			t.Fatal(err)
		}
	}
	if err := est.AddCounts(10, []uint64{1}); err == nil {
		t.Fatal("AddCounts accepted a mis-sized counts slice")
	}
	bins := est.Estimates()
	if len(bins) != 1 || bins[0].Start != 0 {
		t.Fatalf("bins = %+v", bins)
	}
	if got := bins[0].Sampled; got[0] != 13 || got[1] != 4 {
		t.Fatalf("sampled = %v, want [13 4]", got)
	}
	if e0, e1 := bins[0].Estimate(0), bins[0].Estimate(1); e0 != 26 || e1 != 16 {
		t.Fatalf("estimates = [%v %v], want [26 16]", e0, e1)
	}
}

func TestPrefixClassifier(t *testing.T) {
	var tbl prefix.Table
	tbl.MustInsert(packet.AddrFrom4(10, 0, 1, 0), 24, 0)
	tbl.MustInsert(packet.AddrFrom4(10, 0, 2, 0), 24, 1)
	classify := PrefixClassifier(&tbl)
	k := key(1)
	k.Dst = packet.AddrFrom4(10, 0, 2, 77)
	if od, ok := classify(k); !ok || od != 1 {
		t.Fatalf("classify = %d,%v", od, ok)
	}
	k.Dst = packet.AddrFrom4(192, 0, 2, 1)
	if _, ok := classify(k); ok {
		t.Fatal("background traffic classified")
	}
}
