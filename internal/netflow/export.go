package netflow

import (
	"fmt"
	"net"
	"sync"
	"time"

	"netsamp/internal/packet"
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
// gap (loss credited back) and duplicates. The ingest tier
// (internal/ingest) runs one per exporter, on the exporter's shard; it
// is not synchronized — the owner serializes access.
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
