// The wire-facing half of this package — the Exporter and the datagram
// format it emits — can only be tested against a receiver, and the tree
// has exactly one: ingest.Collector. ingest imports netflow, so these
// tests live in the external test package.
package netflow_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"netsamp/internal/faults"
	"netsamp/internal/ingest"
	"netsamp/internal/netflow"
	"netsamp/internal/packet"
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

// dgram encodes one export datagram with the given flow sequence and
// record count, bypassing the exporter.
func dgram(exporter, seq uint32, count int) []byte {
	h := packet.Header{Count: uint8(count), Seq: seq, Exporter: exporter}
	b := h.AppendTo(nil)
	for i := 0; i < count; i++ {
		rec := packet.Record{Key: key(byte(i)), Packets: 1}
		b = rec.AppendTo(b)
	}
	return b
}

// listen starts a one-shard live collector on the loopback; cfg carries
// the estimation stage, if the test wants one.
func listen(t *testing.T, cfg ingest.Config) *ingest.Collector {
	t.Helper()
	cfg.Shards = 1
	c, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dial connects a raw UDP socket to the collector, for tests that wrap
// the connection in a fault injector or write datagrams by hand.
func dial(t *testing.T, c *ingest.Collector) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// await polls the collector's accounting until cond holds and returns
// that view.
func await(t *testing.T, c *ingest.Collector, cond func(ingest.View) bool) ingest.View {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := c.Snapshot()
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never reached the awaited state: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
}

func received(n uint64) func(ingest.View) bool {
	return func(v ingest.View) bool { return v.Records >= n }
}

// closed closes the collector and returns its final, balanced books.
func closed(t *testing.T, c *ingest.Collector) ingest.View {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	v := c.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if v.Queued != 0 || v.Dropped.Total() != 0 {
		t.Fatalf("collector shed records on a quiet loopback: %+v", v)
	}
	return v
}

// TestExporterCollectorRoundTrip: 80 records leave as two full datagrams
// and a flushed tail, and every one reaches the estimator stage with its
// key, packet count and start time intact — each record classifies to
// its own OD pair at ρ = 1, so Sampled is the record's packet count.
func TestExporterCollectorRoundTrip(t *testing.T) {
	const n = 80
	rho := make([]float64, n)
	for i := range rho {
		rho[i] = 1
	}
	col := listen(t, ingest.Config{
		IntervalSeconds: 300,
		Rho:             rho,
		Classifier: func(k packet.FiveTuple) (int, bool) {
			i := k.SrcPort - 1000
			return int(i), k == key(byte(i)) // a key damaged in flight classifies nowhere
		},
	})
	exp, err := netflow.NewExporter(col.Addr(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var recs []packet.Record
	for i := 0; i < n; i++ {
		recs = append(recs, packet.Record{
			Key:       key(byte(i)),
			MonitorID: uint16(i % 5),
			Packets:   uint64(i + 1),
			Bytes:     uint64(100 * (i + 1)),
			Start:     uint32(300 * (i % 2)),
			End:       uint32(300*(i%2) + 10),
		})
	}
	if err := exp.Export(recs); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	if exp.Sent() != n {
		t.Fatalf("Sent = %d", exp.Sent())
	}
	await(t, col, received(n))
	v := closed(t, col)
	if v.Records != n || v.Delivered != n || v.Datagrams != 3 || v.MalformedDatagrams != 0 || v.LostRecords != 0 {
		t.Fatalf("collector view = %+v", v)
	}
	if len(v.Exporters) != 1 || v.Exporters[0].ID != 42 {
		t.Fatalf("exporters = %+v", v.Exporters)
	}
	if es := v.Exporters[0].Seq; es.Received != n || es.Datagrams != 3 || es.LostRecords != 0 || es.Duplicates != 0 {
		t.Fatalf("exporter stats = %+v", es)
	}
	bins := col.Estimates()
	if len(bins) != 2 || bins[0].Start != 0 || bins[1].Start != 300 {
		t.Fatalf("bins = %+v", bins)
	}
	for i := 0; i < n; i++ {
		want := [2]uint64{}
		want[i%2] = uint64(i + 1)
		if got := [2]uint64{bins[0].Sampled[i], bins[1].Sampled[i]}; got != want {
			t.Fatalf("record %d: sampled per bin %v, want %v", i, got, want)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exp.Export(recs[:1]); err == nil {
		t.Fatal("export after close accepted")
	}
}

func TestExporterCloseFlushes(t *testing.T) {
	col := listen(t, ingest.Config{})
	exp, err := netflow.NewExporter(col.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Export([]packet.Record{{Key: key(1), Packets: 7}}); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Records; got != 0 {
		t.Fatalf("partial datagram sent before Close: %d records", got)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	await(t, col, received(1))
}

// TestCollectorCountsSequenceGaps: FlowSequence counts records, so a
// datagram arriving two sequence numbers late over a real socket is a
// two-record loss on that exporter.
func TestCollectorCountsSequenceGaps(t *testing.T) {
	col := listen(t, ingest.Config{})
	conn := dial(t, col)
	defer conn.Close()
	for _, seq := range []uint32{0, 3} { // records 1..2 never arrive
		if _, err := conn.Write(dgram(9, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	v := await(t, col, received(2))
	if v.LostRecords != 2 {
		t.Fatalf("LostRecords = %d, want 2", v.LostRecords)
	}
	es := v.Exporters[0].Seq
	if v.Exporters[0].ID != 9 || es.LostRecords != 2 || es.Received != 2 || es.Datagrams != 2 {
		t.Fatalf("exporter stats = %+v", v.Exporters[0])
	}
	if lf := es.LossFraction(); lf != 0.5 {
		t.Fatalf("LossFraction = %v, want 0.5", lf)
	}
}

func TestExporterRetryRecoversTransientErrors(t *testing.T) {
	col := listen(t, ingest.Config{})
	fc := faults.NewFlakyConn(dial(t, col))
	exp := netflow.NewExporterConn(fc, 5)
	defer exp.Close()
	exp.SetRetry(netflow.RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond})

	fc.FailNext(2) // two transient failures, then the wire heals
	if err := exp.Export([]packet.Record{{Key: key(1), Packets: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if v := await(t, col, received(1)); v.Records != 1 || v.LostRecords != 0 {
		t.Fatalf("view = %+v", v)
	}
	if exp.Dropped() != 0 || exp.Sent() != 1 {
		t.Fatalf("dropped=%d sent=%d", exp.Dropped(), exp.Sent())
	}
	if exp.Retries() < 2 {
		t.Fatalf("retries = %d, want >= 2", exp.Retries())
	}
}

// TestExporterDropSurfacesAsSequenceGap: when retries are exhausted the
// records are dropped and counted — and because the flow sequence still
// advances, the collector sees the loss as an ordinary gap.
func TestExporterDropSurfacesAsSequenceGap(t *testing.T) {
	col := listen(t, ingest.Config{})
	fc := faults.NewFlakyConn(dial(t, col))
	exp := netflow.NewExporterConn(fc, 6)
	defer exp.Close()
	exp.SetRetry(netflow.RetryPolicy{MaxRetries: 1})

	send := func(n byte) error {
		if err := exp.Export([]packet.Record{{Key: key(n), Packets: uint64(n)}}); err != nil {
			return err
		}
		return exp.Flush()
	}
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	fc.FailNext(10) // outage longer than the retry budget
	if err := send(2); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if exp.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", exp.Dropped())
	}
	fc.FailNext(0)
	if err := send(3); err != nil {
		t.Fatal(err)
	}
	v := await(t, col, received(2))
	if es := v.Exporters[0].Seq; v.Exporters[0].ID != 6 || es.LostRecords != 1 || es.Received != 2 {
		t.Fatalf("collector missed the drop gap: %+v", v.Exporters[0])
	}
}

// TestChannelConnEndToEnd drives an unmodified exporter over a
// fault-injecting channel and checks the collector's loss accounting
// agrees with the channel's ground truth.
func TestChannelConnEndToEnd(t *testing.T) {
	col := listen(t, ingest.Config{})
	plan, err := faults.NewPlan(faults.Config{Seed: 21, DatagramLoss: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ch := plan.Channel(8)
	exp := netflow.NewExporterConn(faults.NewChannelConn(dial(t, col), ch), 8)
	defer exp.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := exp.Export([]packet.Record{{Key: key(byte(i)), Packets: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := exp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if ch.Lost() == 0 {
		t.Fatal("channel injected no loss")
	}
	want := uint64(n) - ch.Lost()
	v := await(t, col, func(v ingest.View) bool { return v.Datagrams >= want })
	es := v.Exporters[0].Seq
	// Trailing losses are invisible until a later datagram arrives; the
	// final datagram may have been dropped, so allow the tail.
	if es.LostRecords > ch.Lost() || ch.Lost()-es.LostRecords > 3 {
		t.Fatalf("collector lost=%d, channel dropped=%d", es.LostRecords, ch.Lost())
	}
	if es.Received != want {
		t.Fatalf("received %d, want %d", es.Received, want)
	}
}

// TestEndToEndPipeline wires table → exporter → collector → estimator on
// the loopback and checks the renormalized estimate is close to the true
// size.
func TestEndToEndPipeline(t *testing.T) {
	const rate = 0.05
	col := listen(t, ingest.Config{
		IntervalSeconds: 300,
		Rho:             []float64{rate},
		Classifier:      func(packet.FiveTuple) (int, bool) { return 0, true },
	})
	exp, err := netflow.NewExporter(col.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ft := netflow.NewFlowTable(3, netflow.Config{SamplingRate: rate, IdleTimeout: 30}, rng.New(8))
	r := rng.New(9)
	const trueSize = 100000
	for i := 0; i < trueSize; i++ {
		// 50 concurrent flows of the same OD pair within one bin.
		k := key(byte(r.Intn(50)))
		if _, ev := ft.Observe(k, 1500, uint32(i/1000)); ev != nil {
			if err := exp.Export(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := exp.Export(ft.Flush()); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	// Loopback UDP is reliable enough in-process; wait for all records.
	await(t, col, received(ft.Stats().ExpiredFlows))
	if v := closed(t, col); v.MalformedDatagrams != 0 || v.LostRecords != 0 {
		t.Fatalf("view = %+v", v)
	}
	bins := col.Estimates()
	if len(bins) != 1 {
		t.Fatalf("bins = %d", len(bins))
	}
	got := bins[0].Estimate(0)
	if d := got - trueSize; d > 0.05*trueSize || d < -0.05*trueSize {
		t.Fatalf("estimate = %v, want ≈%v", got, trueSize)
	}
}

// TestExporterConcurrent: multiple goroutines may share one exporter;
// whatever interleaving results, every datagram on the wire is
// well-formed and the sequence stream has neither gaps nor duplicates
// beyond what the loopback itself shed.
func TestExporterConcurrent(t *testing.T) {
	col := listen(t, ingest.Config{})
	exp, err := netflow.NewExporter(col.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := exp.Export([]packet.Record{{Key: key(byte(w)), Packets: uint64(i + 1)}}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if exp.Sent() != workers*per {
		t.Fatalf("Sent = %d, want %d", exp.Sent(), workers*per)
	}
	v := await(t, col, func(v ingest.View) bool { return v.Records+v.LostRecords >= workers*per })
	if v.MalformedDatagrams != 0 || v.Duplicates != 0 {
		t.Fatalf("concurrent export corrupted the stream: %+v", v)
	}
}

// TestExportersSorted pins the deterministic exporter listing: ascending
// IDs, one entry per exporter however many shards they hash to and
// whatever order they first spoke in.
func TestExportersSorted(t *testing.T) {
	c, err := ingest.New(ingest.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{9, 3, 7, 1, 3, 9} {
		c.Inject(dgram(id, 0, 4))
	}
	v := c.Snapshot()
	want := []ingest.ExporterView{ // 3 and 9 spoke twice; the repeat is a duplicate
		{ID: 1, Received: 4, Queued: 4, Seq: netflow.ExporterStats{Datagrams: 1, Received: 4}},
		{ID: 3, Received: 8, Queued: 8, Seq: netflow.ExporterStats{Datagrams: 2, Received: 8, Duplicates: 1}},
		{ID: 7, Received: 4, Queued: 4, Seq: netflow.ExporterStats{Datagrams: 1, Received: 4}},
		{ID: 9, Received: 8, Queued: 8, Seq: netflow.ExporterStats{Datagrams: 2, Received: 8, Duplicates: 1}},
	}
	if len(v.Exporters) != len(want) {
		t.Fatalf("got %d exporters, want %d", len(v.Exporters), len(want))
	}
	for i, e := range v.Exporters {
		e.Shard = 0
		if e != want[i] {
			t.Fatalf("exporter %d: %+v, want %+v (listing must be ascending by ID)", i, e, want[i])
		}
	}
}

// malformed is the corpus of byte strings a receiver must reject before
// attribution: truncated headers, mid-record cuts, a declared count the
// buffer cannot hold, trailing bytes, and a forged empty datagram.
func malformed() [][]byte {
	whole := dgram(9, 0, 4)
	return [][]byte{
		{},
		whole[:1],
		make([]byte, packet.HeaderSize), // right length, no magic
		whole[:packet.HeaderSize-1],     // header cut short
		whole[:packet.HeaderSize],       // count=4, zero record bytes
		whole[:packet.HeaderSize+packet.RecordSize/2], // cut inside record 0
		whole[:packet.HeaderSize+packet.RecordSize+1], // cut just after record 1 starts
		whole[:len(whole)-1],                          // one byte shy of complete
		append(append([]byte{}, whole...), 0x00),      // one byte of trailing garbage
		append(append([]byte{}, whole...), 0xca, 0xfe),
		dgram(9, 0, 0), // empty datagram: forged count
	}
}

// TestDecodeTruncated: every malformed datagram is counted in
// MalformedDatagrams, creates no exporter entry and never advances the
// sequence accounting — the intact datagram that follows is in order.
func TestDecodeTruncated(t *testing.T) {
	c, err := ingest.New(ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cuts := malformed()
	for i, cut := range cuts {
		if c.Inject(cut) {
			t.Fatalf("cut %d accepted (%d bytes)", i, len(cut))
		}
	}
	v := c.Snapshot()
	if v.MalformedDatagrams != uint64(len(cuts)) {
		t.Fatalf("MalformedDatagrams = %d, want %d", v.MalformedDatagrams, len(cuts))
	}
	if v.Datagrams != 0 || v.Records != 0 || v.LostRecords != 0 || len(v.Exporters) != 0 {
		t.Fatalf("malformed datagrams advanced accounting: %+v", v)
	}
	// The intact datagram still gets in after all that abuse, at the
	// sequence a fresh exporter starts from.
	if !c.Inject(dgram(9, 0, 4)) || !c.Inject(dgram(9, 4, 1)) {
		t.Fatal("intact datagram rejected")
	}
	v = c.Snapshot()
	if v.Records != 5 || v.LostRecords != 0 || v.Duplicates != 0 || v.MalformedDatagrams != uint64(len(cuts)) {
		t.Fatalf("after intact datagrams: %+v", v)
	}
}

// FuzzCollectorDecode: the receiver's datagram validation must be total.
// Any byte string is either rejected — counted malformed, nothing else
// moves — or accepted with exactly its declared records entering the
// books, which then balance after processing.
func FuzzCollectorDecode(f *testing.F) {
	f.Add(dgram(1, 0, 3))
	for _, b := range malformed() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ingest.New(ingest.Config{RingSize: 2}) // one datagram per run: don't allocate 1024 slots
		if err != nil {
			t.Fatal(err)
		}
		ok := c.Inject(data) // must not panic
		c.ProcessAllAvailable()
		v := c.Snapshot()
		if err := v.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		if ok != (v.MalformedDatagrams == 0) || ok != (v.Datagrams == 1) {
			t.Fatalf("Inject = %v but malformed %d, datagrams %d", ok, v.MalformedDatagrams, v.Datagrams)
		}
		if want := uint64(len(data)-packet.HeaderSize) / packet.RecordSize; ok && (v.Records != want || v.Queued != 0) {
			t.Fatalf("accepted %d-byte datagram carries %d records: %+v", len(data), want, v)
		}
	})
}
