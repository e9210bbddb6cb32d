package eval

import (
	"fmt"
	"io"

	"netsamp/internal/ingest"
	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/rng"
)

// SaturationStudy measures the ingest tier's graceful-degradation curve
// entirely in step mode — no sockets, no goroutines, no clocks — so the
// study is bit-identical for a given seed and sits inside the replay
// fence like every other experiment. Each grid point offers a chosen
// multiple of the collector's aggregate record budget: synthetic
// exporters inject full export datagrams tick by tick (with seeded wire
// loss and duplicates), each shard processes at most its per-tick
// budget, and the periodic deterministic merge folds the survivors into
// the estimator. The curve to expect: delivered goodput saturates at
// capacity while the Overload bucket absorbs the excess, and the books
// balance exactly at every point.

// SaturationConfig parameterizes the study; DefaultSaturationConfig
// holds the defaults noted on each field.
type SaturationConfig struct {
	// Shards is the collector shard count (default 4).
	Shards int
	// RingSize is the per-shard datagram ring capacity (default 256).
	RingSize int
	// Policy is the overload policy (default drop-newest; the Block
	// policy degrades to immediate drop in step mode, so drop-newest is
	// the honest default here).
	Policy ingest.Policy
	// CapacityPerTick is the record budget each shard may process per
	// tick (default 2048).
	CapacityPerTick int
	// Multiples are the offered-load multiples of aggregate capacity to
	// sweep (default 1, 2, 4).
	Multiples []float64
	// Ticks is the injection horizon per grid point (default 200).
	Ticks int
	// Exporters is the synthetic exporter count (default 8). Exporters
	// land on shards by ID hash, so the per-shard offered load carries
	// realistic imbalance.
	Exporters int
	// Seed drives the fault draws and record contents.
	Seed uint64
	// LossP is the per-datagram wire-loss probability — the datagram's
	// sequence range is emitted but never injected (default 0.01;
	// 0 disables).
	LossP float64
	// DupP is the per-datagram duplicate probability (default 0.005;
	// 0 disables).
	DupP float64
	// MergeEvery is the tick cadence of the deterministic merge
	// (default 16).
	MergeEvery int
}

// DefaultSaturationConfig returns the study's defaults.
func DefaultSaturationConfig() SaturationConfig {
	return SaturationConfig{
		Shards:          4,
		RingSize:        256,
		CapacityPerTick: 2048,
		Multiples:       []float64{1, 2, 4},
		Ticks:           200,
		Exporters:       8,
		LossP:           0.01,
		DupP:            0.005,
		MergeEvery:      16,
	}
}

// SaturationPoint is one offered-load multiple's outcome.
type SaturationPoint struct {
	Multiple float64
	// Emitted counts records the exporters put on the "wire", injected
	// or lost there; Received is what the collector accepted.
	Emitted         uint64
	Received        uint64
	Delivered       uint64
	DroppedOverload uint64
	DroppedShutdown uint64
	LostUpstream    uint64
	Duplicates      uint64
	CoarseBatches   uint64
	// DeliveredFraction is Delivered/Received; DropFraction is the
	// collector's own shedding, Dropped/Received. LossFraction is the
	// estimator-facing combined estimate fed to SetTransportLoss.
	DeliveredFraction float64
	DropFraction      float64
	LossFraction      float64
	// Bins is the number of estimator bins the merges produced — proof
	// the survivors actually reached the estimation stage.
	Bins int
}

// SaturationResult is the full sweep.
type SaturationResult struct {
	Shards          int
	CapacityPerTick int
	Ticks           int
	Exporters       int
	Points          []SaturationPoint
}

// saturationRho/saturationOD: a small synthetic estimation task (3 OD
// pairs keyed by destination port) so the sweep exercises the full
// decode → classify → bin → merge path, not just the ring.
var saturationRho = []float64{0.1, 0.5, 1.0}

func saturationOD(key packet.FiveTuple) (int, bool) {
	return int(key.DstPort) % len(saturationRho), true
}

// SaturationStudy runs the sweep. The returned points are deterministic
// for a given config: same seed, same curve, bit for bit.
func SaturationStudy(cfg SaturationConfig) (*SaturationResult, error) {
	for _, c := range []struct {
		flag  string
		value int
	}{
		{"shards", cfg.Shards}, {"ring", cfg.RingSize}, {"capacity", cfg.CapacityPerTick},
		{"ticks", cfg.Ticks}, {"exporters", cfg.Exporters},
	} {
		if c.value < 1 {
			return nil, &ParamError{Flag: c.flag, Value: float64(c.value), Want: "must be >= 1"}
		}
	}
	if cfg.MergeEvery < 1 {
		return nil, fmt.Errorf("eval: saturation merge cadence %d, want >= 1", cfg.MergeEvery)
	}
	res := &SaturationResult{
		Shards:          cfg.Shards,
		CapacityPerTick: cfg.CapacityPerTick,
		Ticks:           cfg.Ticks,
		Exporters:       cfg.Exporters,
	}
	for mi, m := range cfg.Multiples {
		if !(m > 0) {
			return nil, fmt.Errorf("eval: saturation multiple %v, want > 0", m)
		}
		pt, err := saturationPoint(cfg, mi, m)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// satExporter is one synthetic exporter's injection state.
type satExporter struct {
	id    uint32
	seq   uint32
	src   *rng.Source
	carry float64
}

func saturationPoint(cfg SaturationConfig, mi int, multiple float64) (SaturationPoint, error) {
	col, err := ingest.New(ingest.Config{
		Shards:          cfg.Shards,
		RingSize:        cfg.RingSize,
		Policy:          cfg.Policy,
		IntervalSeconds: 300,
		Rho:             saturationRho,
		Classifier:      saturationOD,
	})
	if err != nil {
		return SaturationPoint{}, err
	}
	exporters := make([]*satExporter, cfg.Exporters)
	for e := range exporters {
		exporters[e] = &satExporter{
			id:  uint32(1 + e),
			seq: 1,
			src: rng.New(rng.SplitSeed(cfg.Seed, uint64(mi*100000+e))),
		}
	}
	// Offered records per exporter per tick, paced with a fractional
	// carry so any multiple is hit exactly in expectation.
	perExporter := multiple * float64(cfg.Shards*cfg.CapacityPerTick) / float64(cfg.Exporters)
	var pt SaturationPoint
	pt.Multiple = multiple
	const recs = netflow.MaxRecordsPerDatagram
	for tick := 0; tick < cfg.Ticks; tick++ {
		for _, ex := range exporters {
			ex.carry += perExporter / recs
			for ; ex.carry >= 1; ex.carry-- {
				if ex.src.Bernoulli(cfg.LossP) {
					// Lost on the wire: the sequence range is consumed but
					// the datagram never arrives.
					pt.Emitted += recs
					ex.seq += recs
					continue
				}
				b := SyntheticDgram(ex.id, ex.seq, ex.src)
				ex.seq += recs
				pt.Emitted += recs
				col.Inject(b)
				if ex.src.Bernoulli(cfg.DupP) {
					col.Inject(b)
				}
			}
		}
		// Every shard spends at most its tick budget; the excess stays
		// queued until the ring fills and overload policy takes over.
		for s := 0; s < cfg.Shards; s++ {
			col.ProcessAvailable(s, cfg.CapacityPerTick)
		}
		if (tick+1)%cfg.MergeEvery == 0 {
			if err := col.MergeNow(); err != nil {
				return SaturationPoint{}, err
			}
		}
	}
	// Drain what the rings still hold — at most RingSize datagrams per
	// shard, bounded skew against the steady-state fractions — then
	// close and audit.
	col.ProcessAllAvailable()
	if err := col.Close(); err != nil {
		return SaturationPoint{}, err
	}
	v := col.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		return SaturationPoint{}, err
	}
	pt.Received = v.Records
	pt.Delivered = v.Delivered
	pt.DroppedOverload = v.Dropped.Overload
	pt.DroppedShutdown = v.Dropped.Shutdown
	pt.LostUpstream = v.LostRecords
	pt.Duplicates = v.Duplicates
	pt.LossFraction = v.LossFraction
	pt.Bins = len(col.Estimates())
	for _, s := range v.Shards {
		pt.CoarseBatches += s.CoarseBatches
	}
	if v.Records > 0 {
		pt.DeliveredFraction = float64(v.Delivered) / float64(v.Records)
		pt.DropFraction = float64(v.Dropped.Total()) / float64(v.Records)
	}
	return pt, nil
}

// SyntheticDgram builds one full export datagram for a load generator
// (the saturation sweep here, netflow-sim's -load soak), drawing record
// contents from src. Flow keys vary with (exp, seq, i) so the shard's
// accumulation paths see realistic key churn; Start varies across a
// 300s interval so bins rotate.
func SyntheticDgram(exp, seq uint32, src *rng.Source) []byte {
	const count = netflow.MaxRecordsPerDatagram
	h := packet.Header{Count: count, Seq: seq, Exporter: exp}
	b := h.AppendTo(make([]byte, 0, packet.HeaderSize+count*packet.RecordSize))
	start := uint32(src.Intn(300))
	for i := 0; i < count; i++ {
		rec := packet.Record{
			Key: packet.FiveTuple{
				Src: packet.Addr(exp), Dst: packet.Addr(seq + uint32(i)),
				SrcPort: uint16(seq), DstPort: uint16(src.Intn(65536)), Proto: packet.ProtoUDP,
			},
			MonitorID: uint16(exp),
			Packets:   uint64(1 + src.Intn(100)),
			Bytes:     uint64(64 * (1 + src.Intn(32))),
			Start:     start,
			End:       start + 1,
		}
		b = rec.AppendTo(b)
	}
	return b
}

// RenderSaturation writes the sweep as a text table.
func RenderSaturation(w io.Writer, res *SaturationResult) error {
	fmt.Fprintf(w, "Ingest saturation: %d shards x %d records/tick, %d ticks, %d exporters\n\n",
		res.Shards, res.CapacityPerTick, res.Ticks, res.Exporters)
	fmt.Fprintf(w, "%8s %12s %12s %12s %10s %10s %10s %8s\n",
		"offered", "received", "delivered", "overload", "dlv frac", "drop frac", "loss frac", "coarse")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%7.1fx %12d %12d %12d %10.4f %10.4f %10.4f %8d\n",
			p.Multiple, p.Received, p.Delivered, p.DroppedOverload,
			p.DeliveredFraction, p.DropFraction, p.LossFraction, p.CoarseBatches)
	}
	_, err := fmt.Fprintf(w, "\nThe tier saturates, it does not collapse: delivered goodput holds at\ncapacity while the Overload bucket absorbs the excess, and every point\nbalances received == delivered + dropped exactly.\n")
	return err
}

// SaturationCSV flattens the sweep for -csv output.
func SaturationCSV(res *SaturationResult) (header []string, rows [][]string) {
	header = []string{"multiple", "emitted", "received", "delivered", "dropped_overload",
		"dropped_shutdown", "lost_upstream", "duplicates", "delivered_fraction", "drop_fraction", "loss_fraction"}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%g", p.Multiple),
			fmt.Sprintf("%d", p.Emitted),
			fmt.Sprintf("%d", p.Received),
			fmt.Sprintf("%d", p.Delivered),
			fmt.Sprintf("%d", p.DroppedOverload),
			fmt.Sprintf("%d", p.DroppedShutdown),
			fmt.Sprintf("%d", p.LostUpstream),
			fmt.Sprintf("%d", p.Duplicates),
			fmt.Sprintf("%.6f", p.DeliveredFraction),
			fmt.Sprintf("%.6f", p.DropFraction),
			fmt.Sprintf("%.6f", p.LossFraction),
		})
	}
	return header, rows
}
