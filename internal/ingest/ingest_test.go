package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"netsamp/internal/netflow"
	"netsamp/internal/packet"
)

// testRho/testClassifier: 3 OD pairs keyed by destination port.
var testRho = []float64{0.1, 0.5, 1.0}

func testClassifier(key packet.FiveTuple) (int, bool) {
	return int(key.DstPort) % len(testRho), true
}

func testConfig(shards int) Config {
	return Config{
		Shards:          shards,
		IntervalSeconds: 300,
		Rho:             testRho,
		Classifier:      testClassifier,
	}
}

// dgram builds one valid export datagram: count records from exporter
// exp at flow sequence seq, with record contents derived
// deterministically from (exp, seq, i).
func dgram(exp, seq uint32, count int, start uint32) []byte {
	h := packet.Header{Count: uint8(count), Seq: seq, Exporter: exp}
	b := h.AppendTo(nil)
	for i := 0; i < count; i++ {
		rec := packet.Record{
			Key: packet.FiveTuple{
				Src: packet.Addr(exp), Dst: packet.Addr(seq + uint32(i)),
				SrcPort: uint16(seq), DstPort: uint16(i), Proto: packet.ProtoTCP,
			},
			MonitorID: uint16(exp),
			Packets:   uint64(1 + i),
			Bytes:     uint64(100 * (i + 1)),
			Start:     start,
			End:       start + 1,
		}
		b = rec.AppendTo(b)
	}
	return b
}

// TestNewValidatesEstimationStage: the estimator takes counts, not
// records, so the tier itself must refuse an estimation stage it could
// never feed, and the estimator's typed ρ rejection passes through.
func TestNewValidatesEstimationStage(t *testing.T) {
	cfg := testConfig(1)
	cfg.Classifier = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("Rho set with a nil Classifier accepted")
	}
	cfg = testConfig(1)
	cfg.Rho = []float64{0.1, math.NaN(), 1}
	var re *netflow.RhoError
	if _, err := New(cfg); !errors.As(err, &re) || re.Pair != 1 {
		t.Fatalf("NaN rho: err = %v, want *netflow.RhoError for pair 1", err)
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("pure counting tier (no Rho, no Classifier): %v", err)
	}
}

func TestRingSPSC(t *testing.T) {
	r := newRing(3) // rounds up to 4
	if r.capacity() != 4 {
		t.Fatalf("capacity %d, want 4", r.capacity())
	}
	payload := func(i byte) []byte { return []byte{i, i + 1} }
	for i := byte(0); i < 4; i++ {
		if !r.push(payload(i), int64(i)) {
			t.Fatalf("push %d rejected before full", i)
		}
	}
	if r.push(payload(9), 9) {
		t.Fatal("push accepted on a full ring")
	}
	for i := byte(0); i < 4; i++ {
		sl, ok := r.peek()
		if !ok {
			t.Fatalf("peek %d: empty", i)
		}
		if sl.n != 2 || sl.buf[0] != i || sl.stamp != int64(i) {
			t.Fatalf("slot %d: n=%d buf[0]=%d stamp=%d", i, sl.n, sl.buf[0], sl.stamp)
		}
		r.advance()
	}
	if _, ok := r.peek(); ok {
		t.Fatal("peek on empty ring succeeded")
	}

	// Concurrent SPSC pass under -race: one producer, one consumer,
	// every payload observed exactly once in order.
	const total = 10000
	r2 := newRing(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b [4]byte
		for i := uint32(0); i < total; {
			binary.LittleEndian.PutUint32(b[:], i)
			if r2.push(b[:], 0) {
				i++
			}
		}
	}()
	for want := uint32(0); want < total; {
		sl, ok := r2.peek()
		if !ok {
			continue
		}
		got := binary.LittleEndian.Uint32(sl.buf[:sl.n])
		if got != want {
			t.Fatalf("consumed %d, want %d", got, want)
		}
		r2.advance()
		want++
	}
	wg.Wait()
}

func TestStepModePipelineAndInvariant(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Three exporters, interleaved, with a sequence gap (loss) and a
	// duplicate.
	seqs := map[uint32]uint32{}
	send := func(exp uint32, count int) []byte {
		b := dgram(exp, seqs[exp], count, 1000)
		seqs[exp] += uint32(count)
		return b
	}
	for i := 0; i < 50; i++ {
		exp := uint32(1 + i%3)
		b := send(exp, 1+i%8)
		if !c.Inject(b) {
			t.Fatalf("inject %d rejected", i)
		}
	}
	seqs[2] += 40 // 40 records lost on the wire
	lossy := send(2, 5)
	c.Inject(lossy)
	c.Inject(lossy) // duplicate datagram
	if err := c.Snapshot().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	c.ProcessAllAvailable()
	if err := c.MergeNow(); err != nil {
		t.Fatal(err)
	}
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Queued != 0 {
		t.Fatalf("queued %d after full drain", v.Queued)
	}
	if v.LostRecords != 40 {
		t.Fatalf("lost %d, want 40", v.LostRecords)
	}
	if v.Duplicates != 1 {
		t.Fatalf("duplicates %d, want 1", v.Duplicates)
	}
	if v.Records != v.Delivered {
		t.Fatalf("no drops expected: received %d != delivered %d", v.Records, v.Delivered)
	}
	if len(v.Exporters) != 3 {
		t.Fatalf("%d exporters, want 3", len(v.Exporters))
	}
	for i := 1; i < len(v.Exporters); i++ {
		if v.Exporters[i-1].ID >= v.Exporters[i].ID {
			t.Fatal("exporter view not ascending by ID")
		}
	}
	if got := c.Estimates(); len(got) == 0 {
		t.Fatal("no estimates after merge")
	}
	// The wire loss must surface as variance inflation, not silence.
	if v.LossFraction <= 0 {
		t.Fatalf("loss fraction %v, want > 0", v.LossFraction)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOverloadDropNewestAccounting(t *testing.T) {
	cfg := testConfig(1)
	cfg.RingSize = 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody consumes: the 9th datagram onward must drop (ring 8).
	var seq uint32
	queued, dropped := 0, 0
	for i := 0; i < 30; i++ {
		b := dgram(7, seq, 4, 600)
		seq += 4
		if c.Inject(b) {
			queued++
		} else {
			dropped++
		}
	}
	if queued != 8 || dropped != 22 {
		t.Fatalf("queued %d dropped %d, want 8/22", queued, dropped)
	}
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Dropped.Overload != 22*4 {
		t.Fatalf("overload drops %d, want %d", v.Dropped.Overload, 22*4)
	}
	if v.Queued != 8*4 {
		t.Fatalf("queued records %d, want %d", v.Queued, 8*4)
	}
	// Close drains nothing to the estimator: the queued records become
	// shutdown drops and the books balance exactly.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	v = c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Queued != 0 {
		t.Fatalf("queued %d after Close", v.Queued)
	}
	if v.Dropped.Shutdown != 8*4 {
		t.Fatalf("shutdown drops %d, want %d", v.Dropped.Shutdown, 8*4)
	}
	if v.Records != v.Delivered+v.Dropped.Total() {
		t.Fatalf("final accounting: received %d != delivered %d + dropped %d",
			v.Records, v.Delivered, v.Dropped.Total())
	}
	// All loss is in counters, and the estimator was told: the loss
	// fraction covers every dropped record.
	if v.LossFraction == 0 {
		t.Fatal("drops did not move the loss fraction")
	}
}

func TestMalformedRecordsDropBucket(t *testing.T) {
	c, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	good := dgram(3, 0, 4, 300)
	bad := dgram(3, 4, 4, 300)
	bad[packet.HeaderSize] = 0xff // corrupt the first record's version byte
	c.Inject(good)
	c.Inject(bad)
	// Header-level garbage is rejected before attribution.
	if c.Inject([]byte{1, 2, 3}) {
		t.Fatal("truncated datagram accepted")
	}
	c.ProcessAllAvailable()
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Delivered != 4 || v.Dropped.Malformed != 4 {
		t.Fatalf("delivered %d malformed %d, want 4/4", v.Delivered, v.Dropped.Malformed)
	}
	if v.MalformedDatagrams != 1 {
		t.Fatalf("malformed datagrams %d, want 1", v.MalformedDatagrams)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeBitIdenticalAcrossShardCounts pins the tentpole determinism
// claim: the same input stream through 1, 2 and 4 shards produces
// bit-identical merged estimates and identical per-exporter accounting
// once drained.
func TestMergeBitIdenticalAcrossShardCounts(t *testing.T) {
	stream := make([][]byte, 0, 200)
	seqs := map[uint32]uint32{}
	for i := 0; i < 200; i++ {
		exp := uint32(1 + i%7)
		count := 1 + i%9
		stream = append(stream, dgram(exp, seqs[exp], count, uint32(100+i*7)))
		seqs[exp] += uint32(count)
	}
	type result struct {
		ests []netflow.BinEstimate
		exps []ExporterView
	}
	results := map[int]result{}
	for _, shards := range []int{1, 2, 4} {
		c, err := New(testConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range stream {
			if !c.Inject(b) {
				t.Fatalf("shards=%d: inject %d rejected", shards, i)
			}
			// Interleave partial processing so merge timing differs per
			// shard count — the merged totals must not care.
			if i%3 == 0 {
				c.ProcessAvailable(i%shards, 16)
			}
			if i%50 == 0 {
				if err := c.MergeNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.ProcessAllAvailable()
		if err := c.MergeNow(); err != nil {
			t.Fatal(err)
		}
		v := c.Snapshot()
		if err := v.CheckInvariant(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		results[shards] = result{ests: c.Estimates(), exps: v.Exporters}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	base := results[1]
	for _, shards := range []int{2, 4} {
		r := results[shards]
		if len(r.ests) != len(base.ests) {
			t.Fatalf("shards=%d: %d bins, want %d", shards, len(r.ests), len(base.ests))
		}
		for i := range base.ests {
			a, b := base.ests[i], r.ests[i]
			if a.Start != b.Start {
				t.Fatalf("shards=%d bin %d: start %d != %d", shards, i, b.Start, a.Start)
			}
			for k := range a.Sampled {
				if a.Sampled[k] != b.Sampled[k] || a.Estimate(k) != b.Estimate(k) || a.RelStdErr(k) != b.RelStdErr(k) {
					t.Fatalf("shards=%d bin %d od %d: (%d, %v, %v) != (%d, %v, %v)",
						shards, i, k, b.Sampled[k], b.Estimate(k), b.RelStdErr(k), a.Sampled[k], a.Estimate(k), a.RelStdErr(k))
				}
			}
		}
		if len(r.exps) != len(base.exps) {
			t.Fatalf("shards=%d: %d exporters, want %d", shards, len(r.exps), len(base.exps))
		}
		for i := range base.exps {
			a, b := base.exps[i], r.exps[i]
			a.Shard, b.Shard = 0, 0 // placement is allowed to differ
			if a != b {
				t.Fatalf("shards=%d exporter %d: %+v != %+v", shards, a.ID, b, a)
			}
		}
	}
}

// TestAccumulateMatchesPerRecordFold holds accumulate, which resolves
// the interval bin once per run of records sharing it, to a per-record
// map fold. The batches switch bins every record, in runs, between
// batches and inside a bin, with unclassified and out-of-range records
// (which must not end a run's bookkeeping early) mixed in, and a merge
// recycles the count slices halfway.
func TestAccumulateMatchesPerRecordFold(t *testing.T) {
	cfg := testConfig(1)
	// DstPort 7 is unclassified; DstPort ≥ 3 (other than 7) is an OD
	// index past len(Rho).
	cfg.Classifier = func(key packet.FiveTuple) (int, bool) { return int(key.DstPort), key.DstPort != 7 }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := c.shards[0]
	type rec struct {
		start uint32
		od    uint16
	}
	batches := [][]rec{
		{{0, 0}, {300, 1}, {10, 2}, {310, 0}, {20, 1}, {599, 2}},    // alternate every record
		{{299, 0}, {0, 1}, {7, 2}, {300, 0}, {300, 1}, {0, 2}},      // runs of three
		{{600, 1}, {0, 7}, {610, 2}, {0, 5}, {620, 0}},              // new bin; skipped records of another bin between
		{{620, 0}, {0, 1}, {899, 2}},                                // first record continues the last batch's bin
		{{0, 7}, {300, 4}},                                          // nothing counted
		{{300, 2}},                                                  // after a merge: recycled slices
		{{900, 0}, {300, 1}, {900, 2}, {300, 0}, {1200, 1}, {0, 2}}, // three bins interleaved
	}
	want := map[uint32][]uint64{}
	packets := uint64(1)
	for bi, batch := range batches {
		recs := make([]packet.Record, len(batch))
		for i, r := range batch {
			recs[i] = packet.Record{Key: packet.FiveTuple{DstPort: r.od}, Start: r.start, Packets: packets}
			if r.od < 3 {
				bin := r.start - r.start%300
				if want[bin] == nil {
					want[bin] = make([]uint64, 3)
				}
				want[bin][r.od] += packets
			}
			packets = packets*3 + 1
		}
		s.mu.Lock()
		s.accumulate(recs)
		s.mu.Unlock()
		if bi == 4 {
			if err := c.MergeNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.MergeNow(); err != nil {
		t.Fatal(err)
	}
	ests := c.Estimates()
	if len(ests) != len(want) {
		t.Fatalf("%d bins, want %d", len(ests), len(want))
	}
	for _, b := range ests {
		for k, got := range b.Sampled {
			if got != want[b.Start][k] {
				t.Fatalf("bin %d od %d: %d packets, per-record fold %d", b.Start, k, got, want[b.Start][k])
			}
		}
	}
}

// TestLiveOverloadGracefulDegradation drives a live 2-shard collector
// at several times its throttled capacity over UDP: it must stay up,
// drop (not block, not grow), keep the books exact, and report the
// loss to the estimator.
func TestLiveOverloadGracefulDegradation(t *testing.T) {
	cfg := testConfig(2)
	cfg.RingSize = 64
	cfg.CapacityPerShard = 20000 // records/sec — tiny, so overload is certain
	cfg.MergeEvery = 20 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	exp, err := netflow.NewExporter(c.Addr(), 11)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]packet.Record, netflow.MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = packet.Record{
			Key:     packet.FiveTuple{Src: 1, Dst: 2, DstPort: uint16(i), Proto: packet.ProtoTCP},
			Packets: 1, Start: 500,
		}
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := exp.Export(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Queued != 0 {
		t.Fatalf("queued %d after Close", v.Queued)
	}
	if v.Records != v.Delivered+v.Dropped.Total() {
		t.Fatalf("final accounting: received %d != delivered %d + dropped %d",
			v.Records, v.Delivered, v.Dropped.Total())
	}
	// At many-times capacity the tier must have shed load. (UDP may
	// also shed into sequence gaps — that is accounted separately and
	// is fine.)
	if v.Dropped.Total() == 0 && v.LostRecords == 0 {
		t.Fatalf("sustained overload produced no drops and no wire loss: %+v", v)
	}
	if v.Dropped.Total() > 0 && v.LossFraction == 0 {
		t.Fatal("drops did not surface in the loss fraction")
	}
}

// TestPoisonedDatagramRestart pins the supervisor integration: a
// classifier that panics on one flow key must cost exactly that
// datagram (Poisoned bucket), the worker restarts with stats intact,
// and everything else is delivered.
func TestPoisonedDatagramRestart(t *testing.T) {
	cfg := testConfig(1)
	cfg.Classifier = func(key packet.FiveTuple) (int, bool) {
		if key.SrcPort == 4242 {
			panic("poisoned flow key")
		}
		return int(key.DstPort) % len(testRho), true
	}
	cfg.RestartBackoff = time.Millisecond
	cfg.MaxRestarts = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var seq uint32
	send := func(count int, poison bool) {
		b := dgram(5, seq, count, 900)
		if poison {
			// SrcPort sits at offset 12 of the first record.
			binary.LittleEndian.PutUint16(b[packet.HeaderSize+12:], 4242)
		}
		seq += uint32(count)
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	send(3, false)
	send(4, true) // the worker panics on this one
	send(5, false)
	waitUntil(t, time.Second, func() bool {
		v := c.Snapshot()
		return v.Delivered == 8 && v.Dropped.Poisoned == 4
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Delivered != 8 || v.Dropped.Poisoned != 4 {
		t.Fatalf("delivered %d poisoned %d, want 8/4: %+v", v.Delivered, v.Dropped.Poisoned, v)
	}
	if v.Shards[0].Restarts == 0 {
		t.Fatal("no supervisor restart recorded")
	}
	if v.Records != 12 {
		t.Fatalf("restart lost accounting state: received %d, want 12", v.Records)
	}
}

// TestSteadyStateZeroAlloc pins the hot path: once exporters and bins
// are warm, inject + decode + classify + account allocates nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	c, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b := dgram(9, 0, netflow.MaxRecordsPerDatagram, 1200)
	var seq uint32
	step := func() {
		binary.LittleEndian.PutUint32(b[4:], seq)
		seq += netflow.MaxRecordsPerDatagram
		if !c.Inject(b) {
			t.Fatal("inject rejected")
		}
		if c.ProcessAvailable(0, 1<<20) != netflow.MaxRecordsPerDatagram {
			t.Fatal("short processing")
		}
	}
	for i := 0; i < 32; i++ {
		step() // warm: exporter entry, interval bin, decode scratch
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state ingest allocates %.1f allocs/op, want 0", allocs)
	}
}

// waitUntil polls cond until it holds or the deadline passes (then the
// caller's final assertions report the details).
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchdogDetectsWorkerWedgedHoldingLock pins the watchdog's
// lock-free contract: a worker wedged inside its critical section —
// holding s.mu — must still be flagged Stalled. The wedge is a
// classifier that blocks, which runs under the shard lock inside
// accumulate; the watchdog reads the shard's atomic progress counter
// and the ring cursors instead of taking s.mu, so it keeps ticking. An
// implementation that locked per shard would deadlock against exactly
// this wedge and never report it.
func TestWatchdogDetectsWorkerWedgedHoldingLock(t *testing.T) {
	var logMu sync.Mutex
	var logs []string
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := testConfig(1)
	cfg.WatchdogEvery = 5 * time.Millisecond
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	cfg.Classifier = func(key packet.FiveTuple) (int, bool) {
		if key.SrcPort == 9999 {
			once.Do(func() { close(entered) })
			<-release
		}
		return 0, true
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	exp, err := netflow.NewExporter(c.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	wedgeRecs := []packet.Record{{
		Key:     packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 9999, Proto: packet.ProtoTCP},
		Packets: 1, Start: 500, End: 501,
	}}
	// Resend until the classifier confirms the wedge is in place (UDP
	// may drop the first datagram on a busy loopback).
	wedged := false
	for range 200 {
		if err := exp.Export(wedgeRecs); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
			wedged = true
		case <-time.After(25 * time.Millisecond):
		}
		if wedged {
			break
		}
	}
	if !wedged {
		t.Fatal("worker never reached the blocking classifier")
	}

	// The worker now sits inside accumulate holding s.mu, its datagram
	// un-advanced in the ring: queued work, zero progress. The
	// watchdog must flag it without touching the lock.
	deadline := time.Now().Add(5 * time.Second)
	for !s0(c).stalled.Load() {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("watchdog never flagged the wedged shard")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Released: the worker drains, progress resumes, the flag clears.
	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for s0(c).stalled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never cleared the stall after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Shards[0].Stalled {
		t.Fatal("stall flag must be clear in the final snapshot")
	}
	logMu.Lock()
	defer logMu.Unlock()
	var sawStall, sawRecover bool
	for _, l := range logs {
		if strings.Contains(l, "stalled") {
			sawStall = true
		}
		if strings.Contains(l, "recovered") {
			sawRecover = true
		}
	}
	if !sawStall || !sawRecover {
		t.Fatalf("expected stall and recovery log lines, got %q", logs)
	}
}

// s0 returns the first shard (test shorthand).
func s0(c *Collector) *shard { return c.shards[0] }
