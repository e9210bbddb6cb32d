package netflow

import (
	"fmt"
	"net"
	"sync"
	"time"

	"netsamp/internal/packet"
	"netsamp/internal/topology"
)

// MaxRecordsPerDatagram keeps an export datagram within a conservative
// 1400-byte MTU budget: 16 + 34*40 = 1376 bytes.
const MaxRecordsPerDatagram = 34

// RetryPolicy bounds the exporter's handling of transient write errors:
// each datagram is attempted up to 1+MaxRetries times, sleeping Backoff,
// 2·Backoff, 4·Backoff … between attempts. The zero value disables
// retries (a failed write drops the datagram immediately).
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failed
	// write (0 = no retries).
	MaxRetries int
	// Backoff is the sleep before the first retry; it doubles on each
	// subsequent one. Zero means retry immediately.
	Backoff time.Duration
}

// Exporter ships flow records to a collector over UDP, batching records
// into datagrams and stamping each datagram with the NetFlow v5
// FlowSequence convention — the cumulative number of records exported
// before the datagram — so the collector can account for lost *records*,
// not just lost datagrams. It is safe for concurrent use.
//
// Writes that fail are retried per the RetryPolicy; a datagram whose
// retries are exhausted is dropped and counted in Dropped(). The
// sequence still advances past dropped records, so the loss surfaces at
// the collector as an ordinary FlowSequence gap — exporter-side and
// network-side losses are accounted identically downstream.
type Exporter struct {
	exporterID uint32
	retry      RetryPolicy

	mu      sync.Mutex
	conn    net.Conn        //netsamp:guardedby mu
	seq     uint32          //netsamp:guardedby mu records exported before the next datagram
	batch   []packet.Record //netsamp:guardedby mu
	buf     []byte          //netsamp:guardedby mu
	sent    uint64          //netsamp:guardedby mu
	dropped uint64          //netsamp:guardedby mu
	retries uint64          //netsamp:guardedby mu
	closed  bool            //netsamp:guardedby mu
}

// NewExporter dials the collector at addr (e.g. "127.0.0.1:9995") and
// returns an exporter identified by exporterID.
func NewExporter(addr string, exporterID uint32) (*Exporter, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netflow: dial collector: %w", err)
	}
	return NewExporterConn(conn, exporterID), nil
}

// NewExporterConn wraps an existing connection (any datagram-oriented
// net.Conn, including fault-injecting wrappers) as an exporter.
func NewExporterConn(conn net.Conn, exporterID uint32) *Exporter {
	return &Exporter{
		exporterID: exporterID,
		conn:       conn,
		buf:        make([]byte, 0, packet.HeaderSize+MaxRecordsPerDatagram*packet.RecordSize),
	}
}

// SetRetry installs the transient-write-error policy. Call before
// exporting; it is not safe to change concurrently with Export.
func (e *Exporter) SetRetry(p RetryPolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retry = p
}

// Export queues records and sends every full datagram. Call Flush to
// push a final partial datagram.
func (e *Exporter) Export(recs []packet.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("netflow: exporter closed")
	}
	e.batch = append(e.batch, recs...)
	var firstErr error
	for len(e.batch) >= MaxRecordsPerDatagram {
		if err := e.sendLocked(e.batch[:MaxRecordsPerDatagram]); err != nil && firstErr == nil {
			firstErr = err
		}
		e.batch = e.batch[MaxRecordsPerDatagram:]
	}
	return firstErr
}

// Flush sends any buffered partial datagram.
func (e *Exporter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("netflow: exporter closed")
	}
	if len(e.batch) == 0 {
		return nil
	}
	err := e.sendLocked(e.batch)
	e.batch = e.batch[:0]
	return err
}

// sendLocked encodes and writes one datagram, retrying transient write
// errors per the policy. Whatever the outcome, the flow sequence
// advances by the record count: a dropped datagram becomes a sequence
// gap the collector will observe and account.
//
//netsamp:holds mu callers flush and Close enter with e.mu held
func (e *Exporter) sendLocked(recs []packet.Record) error {
	h := packet.Header{Count: uint8(len(recs)), Seq: e.seq, Exporter: e.exporterID}
	e.buf = h.AppendTo(e.buf[:0])
	for i := range recs {
		e.buf = recs[i].AppendTo(e.buf)
	}
	var err error
	backoff := e.retry.Backoff
	for attempt := 0; ; attempt++ {
		_, err = e.conn.Write(e.buf)
		if err == nil {
			break
		}
		if attempt >= e.retry.MaxRetries {
			break
		}
		e.retries++
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	e.seq += uint32(len(recs))
	if err != nil {
		e.dropped += uint64(len(recs))
		return fmt.Errorf("netflow: export datagram: %w", err)
	}
	e.sent += uint64(len(recs))
	return nil
}

// Sent returns the number of records successfully written so far.
func (e *Exporter) Sent() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent
}

// Dropped returns the number of records abandoned after exhausting the
// retry policy. Dropped records surface at the collector as
// FlowSequence gaps.
func (e *Exporter) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Retries returns how many re-attempts the retry policy has performed.
func (e *Exporter) Retries() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.retries
}

// Close flushes buffered records and releases the socket.
func (e *Exporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	var err error
	if len(e.batch) > 0 {
		err = e.sendLocked(e.batch)
		e.batch = nil
	}
	e.closed = true
	if cerr := e.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Batch is one decoded export datagram.
type Batch struct {
	Exporter uint32
	Seq      uint32
	Records  []packet.Record
}

// CollectorStats accounts the collector's aggregate intake.
type CollectorStats struct {
	Datagrams   uint64
	Records     uint64
	Malformed   uint64
	LostRecords uint64 // flow-sequence gaps summed over exporters
	Duplicates  uint64 // duplicate/reordered datagrams summed over exporters
	// DroppedRecords counts records that were decoded but never delivered
	// on the batch channel because Close raced the hand-off: the shutdown
	// path drops them and accounts them here instead of blocking forever
	// on a consumer that already went away.
	DroppedRecords uint64
}

// ExporterStats accounts one exporter's stream as seen by the
// collector.
type ExporterStats struct {
	// Datagrams and Received count accepted datagrams and the flow
	// records they carried.
	Datagrams uint64
	Received  uint64
	// LostRecords counts records missing per the FlowSequence
	// convention: each datagram carries the cumulative record count
	// exported before it, so a jump past the expected next sequence is
	// a loss of exactly that many records. A late (reordered) datagram
	// that fills a previously observed gap is credited back.
	LostRecords uint64
	// Duplicates counts datagrams whose sequence range was already
	// delivered (duplicated in flight, or retransmitted).
	Duplicates uint64
}

// LossFraction returns LostRecords / (Received + LostRecords), the
// record-loss estimate an estimator should inflate its variance with.
func (s ExporterStats) LossFraction() float64 {
	total := s.Received + s.LostRecords
	if total == 0 {
		return 0
	}
	return float64(s.LostRecords) / float64(total)
}

// maxSeqHoles bounds the per-exporter memory of outstanding sequence
// gaps kept for reorder reconciliation; older holes are forgotten (and
// stay counted as lost).
const maxSeqHoles = 64

// seqHole is a missing [start, start+count) record range.
type seqHole struct {
	start uint32
	count uint32
}

// SeqTracker is a per-exporter flow-sequence tracker: it turns the
// NetFlow v5 FlowSequence convention into record-level loss accounting,
// detecting gaps (lost records), reordered datagrams that refill a known
// gap (loss credited back) and duplicates. Both the single-socket
// Collector and the sharded ingest tier (internal/ingest) run one per
// exporter; it is not synchronized — the owner serializes access.
type SeqTracker struct {
	next  uint32 // expected FlowSequence of the next datagram
	seen  bool
	holes []seqHole
	stats ExporterStats
}

// Stats returns the tracker's accounting so far.
func (t *SeqTracker) Stats() ExporterStats { return t.stats }

// Account updates the tracker with one accepted datagram carrying count
// records starting at flow sequence seq, and returns how the aggregate
// loss accounting moved: lostDelta is the (possibly negative, when a
// reordered datagram refills a gap) change in lost records, dup reports
// a duplicate datagram. All arithmetic is uint32, so sequence wraparound
// is handled naturally: a difference below 2^31 is a forward jump (a
// gap), at or above it a step backwards (a reordered or duplicated
// datagram).
func (t *SeqTracker) Account(seq uint32, count uint32) (lostDelta int64, dup bool) {
	if !t.seen {
		t.seen = true
		t.next = seq + count
	} else {
		switch diff := seq - t.next; {
		case diff == 0: // in order
			t.next = seq + count
		case diff < 1<<31: // forward jump: diff records missing
			t.stats.LostRecords += uint64(diff)
			lostDelta = int64(diff)
			if len(t.holes) == maxSeqHoles {
				t.holes = t.holes[1:]
			}
			t.holes = append(t.holes, seqHole{start: t.next, count: diff})
			t.next = seq + count
		default: // behind: late arrival or duplicate
			if i := t.findHole(seq, count); i >= 0 {
				// A reordered datagram filled a known gap: credit the
				// loss back.
				t.stats.LostRecords -= uint64(count)
				lostDelta = -int64(count)
				t.shrinkHole(i, seq, count)
			} else {
				t.stats.Duplicates++
				dup = true
			}
		}
	}
	t.stats.Datagrams++
	t.stats.Received += uint64(count)
	return lostDelta, dup
}

// Collector listens for export datagrams on UDP, decodes them and
// delivers batches on a channel. Flow-sequence gaps are accounted per
// exporter as lost records; duplicated and reordered datagrams are
// detected and counted. Close stops the read loop and closes the
// channel.
type Collector struct {
	conn *net.UDPConn
	ch   chan Batch
	// done is closed by Close before the socket: the read loop's channel
	// hand-off selects on it, so a decoded batch nobody will consume is
	// dropped (and accounted) instead of wedging the loop — and no send
	// can race the shutdown.
	done      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	stats CollectorStats         //netsamp:guardedby mu
	exps  map[uint32]*SeqTracker //netsamp:guardedby mu
	wg    sync.WaitGroup
}

// NewCollector binds a UDP listener on addr ("127.0.0.1:0" picks an
// ephemeral port) and starts the read loop.
func NewCollector(addr string) (*Collector, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netflow: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("netflow: listen: %w", err)
	}
	// Routers export in bursts (timeout sweeps flush many flows at
	// once); a generous socket buffer absorbs them. Best-effort: the
	// kernel may clamp it, and sequence gaps surface any residual loss.
	_ = conn.SetReadBuffer(8 << 20)
	c := &Collector{
		conn: conn,
		ch:   make(chan Batch, 256),
		done: make(chan struct{}),
		exps: make(map[uint32]*SeqTracker),
	}
	c.wg.Add(1)
	//netsamp:nondeterministic-ok live socket intake is outside replay; all downstream views (Exporters, Snapshot, Estimates) are sorted, and the batch channel + wg synchronize the loop
	go c.readLoop()
	return c, nil
}

// Addr returns the listener's address, for exporters to dial.
func (c *Collector) Addr() string { return c.conn.LocalAddr().String() }

// Batches returns the channel of decoded batches. It is closed by Close.
func (c *Collector) Batches() <-chan Batch { return c.ch }

// Stats returns a snapshot of the collector's aggregate counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ExporterStats returns the per-exporter accounting of one exporter ID
// (ok = false if the collector has never heard from it).
func (c *Collector) ExporterStats(id uint32) (ExporterStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	es, ok := c.exps[id]
	if !ok {
		return ExporterStats{}, false
	}
	return es.stats, true
}

// ExporterAccount pairs an exporter ID with its accounting, for the
// deterministic (sorted) Exporters listing.
type ExporterAccount struct {
	ID    uint32
	Stats ExporterStats
}

// Exporters returns a snapshot of every known exporter's accounting in
// ascending ID order — a deterministic listing consumers can range over
// without inheriting map iteration order.
func (c *Collector) Exporters() []ExporterAccount {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ExporterAccount, 0, len(c.exps))
	for _, id := range topology.SortedKeys(c.exps) {
		out = append(out, ExporterAccount{ID: id, Stats: c.exps[id].stats})
	}
	return out
}

// LossFraction returns the record-loss fraction aggregated over all
// exporters: Σ lost / Σ (received + lost).
func (c *Collector) LossFraction() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.stats.Records + c.stats.LostRecords
	if total == 0 {
		return 0
	}
	return float64(c.stats.LostRecords) / float64(total)
}

// Close shuts the listener down and waits for the read loop to drain.
// A decoded batch the read loop is still holding when Close arrives is
// counted in CollectorStats.DroppedRecords rather than sent: after Close
// returns, no send on the batch channel can happen, even when the
// consumer stopped reading first.
func (c *Collector) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.conn.Close()
	})
	c.wg.Wait()
	return err
}

func (c *Collector) readLoop() {
	defer c.wg.Done()
	defer close(c.ch)
	buf := make([]byte, 65536)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		batch, ok := c.decode(buf[:n])
		if !ok {
			continue
		}
		select {
		case c.ch <- batch:
		case <-c.done:
			// Shutdown raced the hand-off: nobody is draining the
			// channel anymore, so deliverability is gone. Account the
			// batch as dropped — received == delivered + dropped stays
			// exact — and exit without ever sending after Close.
			c.mu.Lock()
			c.stats.DroppedRecords += uint64(len(batch.Records))
			c.mu.Unlock()
			return
		}
	}
}

func (c *Collector) decode(b []byte) (Batch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var h packet.Header
	if err := h.DecodeFromBytes(b); err != nil {
		// Truncated, foreign or version-skewed header.
		c.stats.Malformed++
		return Batch{}, false
	}
	if h.Count == 0 {
		// An export datagram always carries records; the exporter never
		// sends empty ones, so this is noise or a forged header.
		c.stats.Malformed++
		return Batch{}, false
	}
	want := packet.HeaderSize + int(h.Count)*packet.RecordSize
	if len(b) < want {
		// The declared record count exceeds the buffer: a mid-record cut
		// or a forged count. Reject before the record loop so it can
		// never over-read, and never let a truncated datagram advance the
		// sequence accounting.
		c.stats.Malformed++
		return Batch{}, false
	}
	if len(b) > want {
		// Trailing bytes after the declared records: not ours.
		c.stats.Malformed++
		return Batch{}, false
	}
	recs := make([]packet.Record, h.Count)
	off := packet.HeaderSize
	for i := range recs {
		if err := recs[i].DecodeFromBytes(b[off:]); err != nil {
			c.stats.Malformed++
			return Batch{}, false
		}
		off += packet.RecordSize
	}
	c.account(h)
	return Batch{Exporter: h.Exporter, Seq: h.Seq, Records: recs}, true
}

// account updates the per-exporter flow-sequence bookkeeping for one
// accepted datagram and folds the movement into the aggregate counters.
//
//netsamp:holds mu called from the decode path, which locks around the whole datagram
func (c *Collector) account(h packet.Header) {
	es := c.exps[h.Exporter]
	if es == nil {
		es = &SeqTracker{}
		c.exps[h.Exporter] = es
	}
	count := uint32(h.Count)
	lostDelta, dup := es.Account(h.Seq, count)
	c.stats.LostRecords = uint64(int64(c.stats.LostRecords) + lostDelta)
	if dup {
		c.stats.Duplicates++
	}
	c.stats.Datagrams++
	c.stats.Records += uint64(count)
}

// findHole returns the index of the hole containing [seq, seq+count),
// or -1.
func (t *SeqTracker) findHole(seq, count uint32) int {
	for i, hole := range t.holes {
		off := seq - hole.start // uint32 wraparound-safe offset
		if off < hole.count && off+count <= hole.count {
			return i
		}
	}
	return -1
}

// shrinkHole removes [seq, seq+count) from hole i, splitting it if the
// filled range is interior.
func (t *SeqTracker) shrinkHole(i int, seq, count uint32) {
	hole := t.holes[i]
	off := seq - hole.start
	var repl []seqHole
	if off > 0 {
		repl = append(repl, seqHole{start: hole.start, count: off})
	}
	if rest := hole.count - off - count; rest > 0 {
		repl = append(repl, seqHole{start: seq + count, count: rest})
	}
	t.holes = append(t.holes[:i], append(repl, t.holes[i+1:]...)...)
}
