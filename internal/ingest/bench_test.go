package ingest

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/prefix"
)

// benchHarness is a step-mode pipeline driver with preallocated,
// in-place-mutated datagram buffers: the steady state injects, decodes
// and accumulates without a single heap allocation, which is what the
// allocs/op column of these benchmarks pins.
type benchHarness struct {
	col  *Collector
	bufs [][]byte // one reusable full datagram per exporter
	seqs []uint32
}

func newBenchHarness(b *testing.B, shards, exporters, ring int) *benchHarness {
	b.Helper()
	col, err := New(Config{
		Shards:          shards,
		RingSize:        ring,
		IntervalSeconds: 300,
		Rho:             testRho,
		Classifier:      testClassifier,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := &benchHarness{col: col, seqs: make([]uint32, exporters)}
	for e := 0; e < exporters; e++ {
		h.bufs = append(h.bufs, dgram(uint32(1+e), 1, netflow.MaxRecordsPerDatagram, 0))
		h.seqs[e] = 1
	}
	return h
}

// inject sends one full datagram from exporter e, bumping the sequence
// number in place — no buffer is rebuilt.
func (h *benchHarness) inject(e int, stamp int64) bool {
	h.seqs[e] += netflow.MaxRecordsPerDatagram
	binary.LittleEndian.PutUint32(h.bufs[e][4:], h.seqs[e])
	return h.col.ingest(h.bufs[e], stamp)
}

// BenchmarkIngestSteadyState4Shards is the headline throughput number:
// 8 exporters feeding a 4-shard collector in step mode, every datagram
// processed and periodically merged. One op is one full datagram
// (34 records); records/s is reported as a custom metric and allocs/op
// must be zero — the static noalloc check and this pin guard the same
// contract from both sides.
func BenchmarkIngestSteadyState4Shards(b *testing.B) {
	h := newBenchHarness(b, 4, 8, 1024)
	// Warm the exporter tables, bins and rings out of the timed region.
	for e := range h.bufs {
		h.inject(e, 0)
	}
	h.col.ProcessAllAvailable()
	if err := h.col.MergeNow(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		h.inject(i%len(h.bufs), 0)
		if i%256 == 255 {
			h.col.ProcessAllAvailable()
		}
	}
	h.col.ProcessAllAvailable()
	elapsed := time.Since(start)
	b.StopTimer()
	if err := h.col.MergeNow(); err != nil {
		b.Fatal(err)
	}
	v := h.col.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		b.Fatal(err)
	}
	if v.Dropped.Total() != 0 {
		b.Fatalf("steady-state benchmark dropped %d records", v.Dropped.Total())
	}
	if elapsed > 0 {
		b.ReportMetric(float64(v.Delivered)/elapsed.Seconds(), "records/s")
	}
}

// BenchmarkIngestOverload sweeps offered load at 1x/2x/4x of the
// per-op processing budget: each op injects multiple×budget records and
// processes exactly budget per shard, so the rings fill and the
// drop-newest policy sheds the excess. Reported metrics: delivered
// records/s, the steady-state drop fraction, and the p99 hand-off
// latency (stamped inject → consume, sampled with the benchmark's
// clock).
func BenchmarkIngestOverload(b *testing.B) {
	for _, multiple := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dx", multiple), func(b *testing.B) {
			const shards = 4
			h := newBenchHarness(b, shards, 8, 256)
			// Per-op budget: each shard processes up to budget records;
			// exporters offer multiple× that in aggregate.
			const budget = 4096
			dgramsPerOp := multiple * shards * budget / netflow.MaxRecordsPerDatagram
			for e := range h.bufs {
				h.inject(e, 0)
			}
			h.col.ProcessAllAvailable()
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for d := 0; d < dgramsPerOp; d++ {
					h.inject(d%len(h.bufs), time.Now().UnixNano())
				}
				now := time.Now().UnixNano()
				for s := 0; s < shards; s++ {
					h.col.ProcessAvailableAt(s, budget, now)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			h.col.ProcessAllAvailable()
			if err := h.col.MergeNow(); err != nil {
				b.Fatal(err)
			}
			v := h.col.Snapshot()
			if err := v.CheckInvariant(); err != nil {
				b.Fatal(err)
			}
			if v.Records > 0 {
				b.ReportMetric(float64(v.Dropped.Total())/float64(v.Records), "drop-frac")
			}
			if elapsed > 0 {
				b.ReportMetric(float64(v.Delivered)/elapsed.Seconds(), "records/s")
			}
			b.ReportMetric(float64(v.HandoffP99), "p99-handoff-ns")
		})
	}
}

// TestZeroAllocAtMillionRecords pins the zero-alloc contract at scale:
// one million records through the full step-mode pipeline — inject,
// decode, classify, accumulate, merge — with zero heap allocations
// after warm-up. The static //netsamp:noalloc analysis points at the
// offending line when this regresses; this test proves the composed
// path end to end.
func TestZeroAllocAtMillionRecords(t *testing.T) {
	h := &benchHarness{}
	col, err := New(Config{Shards: 4, RingSize: 1024, IntervalSeconds: 300, Rho: testRho, Classifier: testClassifier})
	if err != nil {
		t.Fatal(err)
	}
	h.col = col
	for e := 0; e < 8; e++ {
		h.bufs = append(h.bufs, dgram(uint32(1+e), 1, netflow.MaxRecordsPerDatagram, 0))
		h.seqs = append(h.seqs, 1)
	}
	// Warm-up: touch every exporter entry, bin and the merge path.
	for i := 0; i < 64; i++ {
		h.inject(i%8, 0)
	}
	col.ProcessAllAvailable()
	if err := col.MergeNow(); err != nil {
		t.Fatal(err)
	}

	// 110 runs × 270 datagrams × 34 records ≈ 1.01M records.
	const runs = 110
	const dgramsPerRun = 270
	var processed uint64
	allocs := testing.AllocsPerRun(runs, func() {
		for d := 0; d < dgramsPerRun; d++ {
			h.inject(d%8, 0)
			if d%64 == 63 {
				col.ProcessAllAvailable()
			}
		}
		processed += uint64(col.ProcessAllAvailable())
		if err := col.MergeNow(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per %d-record run; the steady state must not allocate", allocs, dgramsPerRun*netflow.MaxRecordsPerDatagram)
	}
	v := col.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Records < 1_000_000 {
		t.Fatalf("pin covered only %d records, want >= 1M", v.Records)
	}
	if v.Dropped.Total() != 0 {
		t.Fatalf("pin dropped %d records; it must run drop-free", v.Dropped.Total())
	}
}

// pairDgram builds one full datagram whose records are addressed the
// way the interval-pipeline benchmark addresses OD pair k, into
// 10.(k>>8).(k&255).0/24: record i goes to pair (first+73·i) mod pairs
// and carries 1+i packets.
func pairDgram(exp, seq uint32, first, pairs int) []byte {
	h := packet.Header{Count: netflow.MaxRecordsPerDatagram, Seq: seq, Exporter: exp}
	b := h.AppendTo(nil)
	for i := 0; i < netflow.MaxRecordsPerDatagram; i++ {
		k := (first + 73*i) % pairs
		rec := packet.Record{
			Key: packet.FiveTuple{
				Src: packet.Addr(exp), Dst: packet.Addr(10<<24 | uint32(k)<<8 | uint32(i)),
				SrcPort: uint16(seq), DstPort: uint16(i), Proto: packet.ProtoTCP,
			},
			MonitorID: uint16(exp),
			Packets:   uint64(1 + i),
			End:       1,
		}
		b = rec.AppendTo(b)
	}
	return b
}

// TestZeroAllocPrefixClassified is TestZeroAllocAtMillionRecords with
// the production classifier: netflow.PrefixClassifier over a
// 20 000-entry /24 table. It makes the shard's claim that the installed
// classifier is a pure index lookup a tested fact, and checks that
// every record was classified and counted.
func TestZeroAllocPrefixClassified(t *testing.T) {
	const pairs = 20000
	var tbl prefix.Table
	for k := 0; k < pairs; k++ {
		tbl.MustInsert(packet.Addr(10<<24|uint32(k)<<8), 24, int32(k))
	}
	rho := make([]float64, pairs)
	for k := range rho {
		rho[k] = 1
	}
	col, err := New(Config{Shards: 4, RingSize: 1024, IntervalSeconds: 300, Rho: rho, Classifier: netflow.PrefixClassifier(&tbl)})
	if err != nil {
		t.Fatal(err)
	}
	h := &benchHarness{col: col}
	for e := 0; e < 8; e++ {
		h.bufs = append(h.bufs, pairDgram(uint32(1+e), 1, 2477*e, pairs))
		h.seqs = append(h.seqs, 1)
	}
	for i := 0; i < 64; i++ {
		h.inject(i%8, 0)
	}
	col.ProcessAllAvailable()
	if err := col.MergeNow(); err != nil {
		t.Fatal(err)
	}

	const runs = 110
	const dgramsPerRun = 270
	allocs := testing.AllocsPerRun(runs, func() {
		for d := 0; d < dgramsPerRun; d++ {
			h.inject(d%8, 0)
			if d%64 == 63 {
				col.ProcessAllAvailable()
			}
		}
		col.ProcessAllAvailable()
		if err := col.MergeNow(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per %d-record run with the prefix classifier; the steady state must not allocate", allocs, dgramsPerRun*netflow.MaxRecordsPerDatagram)
	}
	v := col.Snapshot()
	if v.Records < 1_000_000 || v.Dropped.Total() != 0 {
		t.Fatalf("pin covered %d records with %d dropped, want >= 1M and none", v.Records, v.Dropped.Total())
	}
	var sampled uint64
	for _, b := range col.Estimates() {
		for _, c := range b.Sampled {
			sampled += c
		}
	}
	// Each datagram carries 1+2+…+34 packets.
	perDgram := uint64(netflow.MaxRecordsPerDatagram * (netflow.MaxRecordsPerDatagram + 1) / 2)
	if want := v.Delivered / netflow.MaxRecordsPerDatagram * perDgram; sampled != want {
		t.Fatalf("estimator holds %d sampled packets, want %d: records went unclassified", sampled, want)
	}
}
