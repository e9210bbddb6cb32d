package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netsamp/internal/netflow"
	"netsamp/internal/packet"
)

// expEntry is one exporter's accounting on its owning shard: the
// flow-sequence tracker plus the ingest-tier invariant counters.
type expEntry struct {
	seq       netflow.SeqTracker
	received  uint64
	delivered uint64
	queued    uint64
	dropped   uint64
}

// shard is one collector shard: a bounded SPSC ring fed by the pump
// and drained by a single worker (live mode) or by ProcessAvailable
// (step mode). All counters, per-exporter state and pending per-OD
// bins live behind mu; the decode scratch buffers are worker-owned and
// never locked.
type shard struct {
	// progress counts records consumed (delivered or dropped) since
	// start. Every consumption site advances it with atomic.AddUint64;
	// the watchdog compares successive atomic.LoadUint64 snapshots
	// WITHOUT taking mu, so a worker wedged while holding mu cannot
	// also wedge the watchdog that exists to flag it. First in the
	// struct: 64-bit atomics require 8-byte alignment, which first
	// position guarantees even under 32-bit struct layout.
	progress uint64

	idx  int
	cfg  *Config
	ring *ring

	// stalled and gaveUp are the watchdog's lock-free view of the
	// corresponding reported flags: the watchdog reads and writes them
	// without mu, Snapshot folds stalled into the stats copy it takes,
	// and the supervisor mirrors GaveUp into gaveUp when it gives up.
	stalled atomic.Bool
	gaveUp  atomic.Bool
	// wake nudges a parked live worker after a push (capacity 1,
	// non-blocking send; a short backstop timer covers the lost-wakeup
	// window).
	wake chan struct{}

	// Estimation parameters, copied from the config.
	classify netflow.ODClassifier
	numOD    int
	interval uint32

	// Worker-owned decode scratch (single consumer; supervisor restarts
	// re-enter on the same goroutine, so no synchronization is needed).
	hdr  packet.Header
	recs []packet.Record
	// inflight describes the datagram being processed, so a restart
	// after a mid-datagram panic can account it as poisoned and skip
	// the slot instead of crash-looping on it.
	inflight struct {
		active   bool
		exporter uint32
		count    uint32
	}
	attempts uint64

	mu    sync.Mutex
	stats ShardStats           //netsamp:guardedby mu
	exps  map[uint32]*expEntry //netsamp:guardedby mu
	bins  map[uint32][]uint64  //netsamp:guardedby mu pending per-OD counts since the last merge
	free  [][]uint64           //netsamp:guardedby mu recycled count slices (bounded by live bin count)
	keys  []uint32             //netsamp:guardedby mu merge-order scratch, recycled so the merge is allocation-free
	lat   latHist              //netsamp:guardedby mu
}

func newShard(idx int, cfg *Config) *shard {
	return &shard{
		idx:      idx,
		cfg:      cfg,
		ring:     newRing(cfg.RingSize),
		wake:     make(chan struct{}, 1),
		classify: cfg.Classifier,
		numOD:    len(cfg.Rho),
		interval: cfg.IntervalSeconds,
		recs:     make([]packet.Record, netflow.MaxRecordsPerDatagram),
		exps:     make(map[uint32]*expEntry),
		bins:     make(map[uint32][]uint64),
		stats:    ShardStats{Shard: idx},
	}
}

// offer is the pump side: account the datagram (sequence tracking and
// the received counter), then hand it off. The queued counters move
// before the slot is published, so the worker's decrement can never
// precede the increment and the invariant holds at every instant. live
// enables the Block policy's bounded wait (meaningless without a
// concurrent consumer).
func (s *shard) offer(b []byte, h *packet.Header, stamp int64, live bool) bool {
	count := uint64(h.Count)
	s.mu.Lock()
	e := s.exps[h.Exporter]
	if e == nil {
		e = &expEntry{}
		s.exps[h.Exporter] = e
	}
	lostDelta, dup := e.seq.Account(h.Seq, uint32(h.Count))
	s.stats.LostRecords = uint64(int64(s.stats.LostRecords) + lostDelta)
	if dup {
		s.stats.Duplicates++
	}
	s.stats.Datagrams++
	s.stats.Records += count
	e.received += count
	s.stats.Queued += count
	e.queued += count
	s.mu.Unlock()

	if s.ring.push(b, stamp) {
		s.wakeWorker()
		return true
	}
	if live && s.cfg.Policy == Block {
		deadline := time.Now().Add(s.cfg.BlockDeadline)
		for {
			runtime.Gosched()
			if s.ring.push(b, stamp) {
				s.wakeWorker()
				return true
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
	}
	// Overload: take the optimistic queued accounting back and count
	// the drop, per shard and per exporter.
	s.mu.Lock()
	s.stats.Queued -= count
	e.queued -= count
	s.stats.Dropped.Overload += count
	e.dropped += count
	s.mu.Unlock()
	return false
}

func (s *shard) wakeWorker() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// coarseThreshold is the ring occupancy at which the worker degrades
// to coarse batching: half full.
func (s *shard) coarseThreshold() int { return s.ring.capacity() / 2 }

// decodeSlot decodes the record payload of the datagram in b (header
// already parsed into s.hdr) into the reused s.recs buffer. The pump
// validated the length against the declared count, so the only failure
// mode left is a corrupt record payload.
//
//netsamp:noalloc
func (s *shard) decodeSlot(b []byte) (int, bool) {
	n := int(s.hdr.Count)
	if n == 0 || n > len(s.recs) {
		return 0, false
	}
	recs := s.recs[:n]
	off := packet.HeaderSize
	for i := range recs {
		if err := recs[i].DecodeFromBytes(b[off:]); err != nil {
			return 0, false
		}
		off += packet.RecordSize
	}
	return n, true
}

// accumulate classifies decoded records and folds their packet counts
// into the shard's pending per-OD interval bins. Caller holds mu (the
// merge reads and recycles these bins) for the whole call, so the count
// slice of the last bin seen stays valid across records: the bin map
// is consulted once per run of records that share a bin — for a
// datagram, almost always once. Unclassified records are background
// traffic outside the measurement task, not loss.
//
//netsamp:noalloc
//netsamp:holds mu processSlot locks before folding the decoded batch
func (s *shard) accumulate(recs []packet.Record) {
	if s.classify == nil || s.numOD == 0 || s.interval == 0 {
		return
	}
	var last uint32
	var counts []uint64
	for i := range recs {
		od, ok := s.classify(recs[i].Key) //netsamp:allocflow-ok classifier installed at config time is a pure index lookup (netflow.PrefixClassifier: pinned by TestZeroAllocPrefixClassified)
		if !ok || od < 0 || od >= s.numOD {
			continue
		}
		if bin := recs[i].Start - recs[i].Start%s.interval; counts == nil || bin != last {
			last, counts = bin, s.bins[bin]
			if counts == nil {
				counts = s.newBinLocked(bin) //netsamp:allocflow-ok cold: one slice per new interval bin, amortized over the interval
			}
		}
		counts[od] += recs[i].Packets
	}
}

// newBinLocked installs a recycled (or, rarely, fresh) per-OD count
// slice for a new interval bin — the cold once-per-interval path off
// the allocation-free accumulate loop. Caller holds mu.
func (s *shard) newBinLocked(bin uint32) []uint64 {
	var counts []uint64
	if n := len(s.free); n > 0 {
		counts = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		counts = make([]uint64, s.numOD)
	}
	s.bins[bin] = counts
	return counts
}

// consumeSlot fully processes one queued datagram: decode into reused
// buffers, classify/accumulate, and move its records from queued to
// delivered (or to the malformed drop bucket). locked says the caller
// already holds mu (coarse batching); nowNanos != 0 enables hand-off
// latency sampling. Returns the datagram's record count. The caller
// advances the ring afterwards.
func (s *shard) consumeSlot(sl *slot, locked bool, nowNanos int64) int {
	b := sl.buf[:sl.n]
	if s.hdr.DecodeFromBytes(b) != nil {
		// Unreachable: the pump validated the header before queueing.
		// Treat defensively as a zero-record datagram.
		return 0
	}
	count := uint64(s.hdr.Count)
	s.inflight.active = true
	s.inflight.exporter = s.hdr.Exporter
	s.inflight.count = uint32(count)
	nrec, decOK := s.decodeSlot(b)
	if !locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if decOK {
		s.accumulate(s.recs[:nrec])
	}
	e := s.exps[s.hdr.Exporter]
	s.stats.Queued -= count
	e.queued -= count
	if decOK {
		s.stats.Delivered += count
		e.delivered += count
	} else {
		s.stats.Dropped.Malformed += count
		e.dropped += count
	}
	atomic.AddUint64(&s.progress, count)
	s.inflight.active = false
	if sl.stamp != 0 && nowNanos != 0 {
		s.lat.add(nowNanos - sl.stamp)
	}
	return int(count)
}

// processBatch consumes up to maxDatagrams queued datagrams. In coarse
// mode the whole sweep shares one critical section — the degraded
// cadence a backlogged shard switches to before dropping anything.
func (s *shard) processBatch(maxDatagrams int, coarse bool, nowNanos int64) (datagrams, records int) {
	if coarse {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.CoarseBatches++
	}
	for datagrams < maxDatagrams {
		sl, ok := s.ring.peek()
		if !ok {
			break
		}
		records += s.consumeSlot(sl, coarse, nowNanos)
		s.ring.advance()
		datagrams++
	}
	return datagrams, records
}

// processBudget is the step-mode consumer: drain queued datagrams until
// at least maxRecords records have been consumed (datagram granularity)
// or the ring is empty. Deterministic — no clock of its own, no coarse
// heuristics; nowNanos != 0 (a caller-supplied clock) enables hand-off
// latency sampling against the hand-off stamps.
func (s *shard) processBudget(maxRecords int, nowNanos int64) int {
	done := 0
	for done < maxRecords {
		sl, ok := s.ring.peek()
		if !ok {
			break
		}
		done += s.consumeSlot(sl, false, nowNanos)
		s.ring.advance()
	}
	return done
}

// noteAttempt runs at live-worker (re)entry. On a restart after a
// panic it accounts the restart and, when the crash was mid-datagram,
// poisons that datagram: its records move from queued to the Poisoned
// drop bucket and the slot is skipped, so one bad input cannot
// crash-loop the shard and the invariant survives the crash. All other
// shard stats are untouched — restarts keep state.
func (s *shard) noteAttempt() {
	s.attempts++
	if s.attempts == 1 {
		return
	}
	s.mu.Lock()
	s.stats.Restarts++
	if s.inflight.active {
		count := uint64(s.inflight.count)
		e := s.exps[s.inflight.exporter]
		s.stats.Queued -= count
		e.queued -= count
		s.stats.Dropped.Poisoned += count
		e.dropped += count
		atomic.AddUint64(&s.progress, count)
		s.inflight.active = false
		s.mu.Unlock()
		s.ring.advance()
		return
	}
	s.mu.Unlock()
}

// runLive is one supervised attempt of the shard worker: drain the
// ring, degrading to coarse batches when the backlog crosses half the
// ring, pacing to CapacityPerShard when configured. On stop it drains
// whatever is queued, then returns nil.
func (s *shard) runLive(stop <-chan struct{}, progress func(), capacity int) error {
	s.noteAttempt()
	pace := newThrottle(capacity)
	backstop := time.NewTimer(time.Hour)
	defer backstop.Stop()
	for {
		n := s.ring.length()
		if n == 0 {
			select {
			case <-stop:
				// The pump is stopped before workers are; one final
				// sweep empties anything that raced in.
				s.processBatch(s.ring.capacity(), false, 0)
				return nil
			default:
			}
			if !backstop.Stop() {
				select {
				case <-backstop.C:
				default:
				}
			}
			backstop.Reset(time.Millisecond)
			select {
			case <-s.wake:
			case <-stop:
			case <-backstop.C:
			}
			continue
		}
		coarse := n >= s.coarseThreshold()
		batch := 1
		if coarse {
			batch = n
		}
		_, recs := s.processBatch(batch, coarse, time.Now().UnixNano())
		progress()
		pace.wait(recs)
	}
}

// shutdownDrain abandons everything still queued, accounting it as
// shutdown drops — after it, queued is zero and
// received == delivered + dropped holds exactly. Only call once the
// worker goroutine has exited (Close does): it takes over the
// consumer role.
func (s *shard) shutdownDrain() {
	for {
		sl, ok := s.ring.peek()
		if !ok {
			return
		}
		var h packet.Header
		if h.DecodeFromBytes(sl.buf[:sl.n]) == nil {
			count := uint64(h.Count)
			s.mu.Lock()
			e := s.exps[h.Exporter]
			s.stats.Queued -= count
			e.queued -= count
			s.stats.Dropped.Shutdown += count
			e.dropped += count
			s.mu.Unlock()
		}
		s.ring.advance()
	}
}

// throttle paces a live worker to a records-per-second capacity with a
// small token bucket — the knob that makes "4× overload" mean the same
// thing on any hardware.
type throttle struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newThrottle(recordsPerSec int) *throttle {
	t := &throttle{rate: float64(recordsPerSec)}
	if t.rate > 0 {
		// Allow ~10ms of burst so pacing sleeps are coarse enough for
		// the OS timer, while the long-run rate stays exact.
		t.burst = t.rate / 100
		if t.burst < float64(netflow.MaxRecordsPerDatagram) {
			t.burst = float64(netflow.MaxRecordsPerDatagram)
		}
		t.tokens = t.burst
		t.last = time.Now()
	}
	return t
}

func (t *throttle) wait(consumed int) {
	if t.rate <= 0 || consumed == 0 {
		return
	}
	now := time.Now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.tokens -= float64(consumed)
	if t.tokens < 0 {
		time.Sleep(time.Duration(-t.tokens / t.rate * float64(time.Second)))
	}
}
