package ingest

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/supervise"
	"netsamp/internal/topology"
)

// Collector is the sharded ingest tier. Build one with New, then
// either drive it passively (Inject / ProcessAvailable / MergeNow — a
// single-producer step mode, fully deterministic) or start live mode
// with Listen (UDP pump, supervised per-shard workers, periodic merge
// and watchdog). Close drains and finalizes the accounting in either
// mode.
type Collector struct {
	cfg    Config
	shards []*shard
	est    *netflow.Estimator // nil when estimation is not configured

	malformed atomic.Uint64 // datagrams rejected before attribution

	// Live-mode machinery; nil/zero in passive mode.
	conn     *net.UDPConn
	stop     chan struct{}
	wg       sync.WaitGroup
	live     atomic.Bool
	stopOnce sync.Once
	closed   atomic.Bool
}

// New builds a collector in passive (step) mode, resolving every unset
// Config field to its documented default. Set cfg.Rho,
// cfg.IntervalSeconds and cfg.Classifier to enable the estimation
// stage; leave Rho nil for a pure counting tier.
func New(cfg Config) (*Collector, error) {
	cfg.Shards = orDefault(cfg.Shards, 1)
	cfg.RingSize = orDefault(cfg.RingSize, 1024)
	cfg.BlockDeadline = orDefault(cfg.BlockDeadline, time.Millisecond)
	cfg.MergeEvery = orDefault(cfg.MergeEvery, 250*time.Millisecond)
	cfg.WatchdogEvery = orDefault(cfg.WatchdogEvery, time.Second)
	cfg.RestartBackoff = orDefault(cfg.RestartBackoff, 10*time.Millisecond)
	c := &Collector{cfg: cfg}
	if len(cfg.Rho) > 0 {
		if cfg.Classifier == nil {
			return nil, fmt.Errorf("ingest: Rho set but Classifier is nil")
		}
		est, err := netflow.NewEstimator(cfg.IntervalSeconds, cfg.Rho)
		if err != nil {
			return nil, err
		}
		c.est = est
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = newShard(i, &c.cfg)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Collector) Shards() int { return len(c.shards) }

// ingest is the shared pump path: validate cheaply, attribute to a
// shard by exporter hash, account, hand off. Datagrams that fail
// validation never enter the sequence accounting (a truncated datagram
// must not advance an exporter's expected sequence).
func (c *Collector) ingest(b []byte, stamp int64) bool {
	var h packet.Header
	if err := h.DecodeFromBytes(b); err != nil || h.Count == 0 {
		c.malformed.Add(1)
		return false
	}
	want := packet.HeaderSize + int(h.Count)*packet.RecordSize
	if len(b) != want || want > slotBytes {
		c.malformed.Add(1)
		return false
	}
	sh := c.shards[shardOf(h.Exporter, len(c.shards))]
	return sh.offer(b, &h, stamp, c.live.Load())
}

// Inject offers one export datagram to the tier in step mode: the
// caller is the pump. It returns whether the datagram was queued
// (false: malformed or dropped by the overload policy — accounted
// either way). At most one goroutine may Inject at a time; it may run
// concurrently with at most one ProcessAvailable per shard (the rings
// are single-producer/single-consumer).
func (c *Collector) Inject(b []byte) bool { return c.ingest(b, 0) }

// ProcessAvailable consumes up to maxRecords queued records on the
// given shard (datagram granularity, so it may run over by at most one
// datagram) and returns how many it consumed. This is the step-mode
// worker: calling it in a loop with a per-tick budget models a
// capacity-limited consumer deterministically, with no goroutines and
// no clock.
func (c *Collector) ProcessAvailable(shard, maxRecords int) int {
	return c.ProcessAvailableAt(shard, maxRecords, 0)
}

// ProcessAvailableAt is ProcessAvailable with a caller-supplied clock
// reading in nanoseconds: records consumed are latency-sampled against
// their hand-off stamps, so a load generator can measure hand-off
// latency without the tier owning a clock.
func (c *Collector) ProcessAvailableAt(shard, maxRecords int, nowNanos int64) int {
	if shard < 0 || shard >= len(c.shards) {
		return 0
	}
	return c.shards[shard].processBudget(maxRecords, nowNanos)
}

// ProcessAllAvailable drains every shard's queue completely (ascending
// shard order) and returns the records consumed.
func (c *Collector) ProcessAllAvailable() int {
	total := 0
	for i := range c.shards {
		for {
			n := c.shards[i].processBudget(1<<20, 0)
			total += n
			if n == 0 {
				break
			}
		}
	}
	return total
}

// MergeNow folds every shard's pending per-OD counts into the
// estimator, in ascending shard order, and refreshes the estimator's
// transport-loss fraction from the global accounting. The merged
// estimator state is bit-identical for any shard count: per-(bin, OD)
// totals are integer sums — exact and commutative — and the loss
// fraction is computed from global totals, never from per-shard
// intermediates. Count slices are recycled, so steady-state merging
// does not grow the tier's memory.
func (c *Collector) MergeNow() error {
	var lost, dropped, received uint64
	for _, s := range c.shards {
		s.mu.Lock()
		if c.est != nil {
			s.keys = s.keys[:0]
			for bin := range s.bins {
				s.keys = append(s.keys, bin)
			}
			slices.Sort(s.keys)
			for _, bin := range s.keys {
				counts := s.bins[bin]
				if err := c.est.AddCounts(bin, counts); err != nil {
					s.mu.Unlock()
					return err
				}
				for k := range counts {
					counts[k] = 0
				}
				s.free = append(s.free, counts)
				delete(s.bins, bin)
			}
		}
		lost += s.stats.LostRecords
		dropped += s.stats.Dropped.Total()
		received += s.stats.Records
		s.mu.Unlock()
	}
	if c.est != nil {
		return c.est.SetTransportLoss(lossFraction(lost, dropped, received))
	}
	return nil
}

// Estimates returns the merged per-interval estimates (nil when the
// tier runs without an estimator). Call MergeNow first to fold in any
// counts still pending on the shards.
func (c *Collector) Estimates() []netflow.BinEstimate {
	if c.est == nil {
		return nil
	}
	return c.est.Estimates()
}

// Snapshot returns the tier's merged accounting view: shards ascending,
// exporters ascending by ID. Each shard is captured atomically under
// its lock; the invariant holds within every shard and exporter entry.
func (c *Collector) Snapshot() View {
	v := View{
		Shards:             make([]ShardStats, 0, len(c.shards)),
		MalformedDatagrams: c.malformed.Load(),
	}
	var hist latHist
	byID := make(map[uint32]ExporterView)
	for _, s := range c.shards {
		s.mu.Lock()
		v.Shards = append(v.Shards, s.stats)
		// Stalled lives in the watchdog's lock-free mirror, not under
		// mu; fold it into the copy the caller sees.
		v.Shards[len(v.Shards)-1].Stalled = s.stalled.Load()
		for id, e := range s.exps {
			byID[id] = ExporterView{
				ID:        id,
				Shard:     s.idx,
				Received:  e.received,
				Delivered: e.delivered,
				Queued:    e.queued,
				Dropped:   e.dropped,
				Seq:       e.seq.Stats(),
			}
		}
		hist.merge(&s.lat)
		s.mu.Unlock()
	}
	for _, id := range topology.SortedKeys(byID) {
		v.Exporters = append(v.Exporters, byID[id])
	}
	for _, st := range v.Shards {
		v.Datagrams += st.Datagrams
		v.Records += st.Records
		v.Delivered += st.Delivered
		v.Queued += st.Queued
		v.Dropped.add(st.Dropped)
		v.LostRecords += st.LostRecords
		v.Duplicates += st.Duplicates
	}
	v.LossFraction = lossFraction(v.LostRecords, v.Dropped.Total(), v.Records)
	v.HandoffP99 = hist.quantile(0.99)
	return v
}

// LossFraction returns the current estimator-facing loss estimate —
// wire losses plus this tier's drops over everything the exporters
// emitted. This is what serve's loss probe reports to the controller.
func (c *Collector) LossFraction() float64 {
	var lost, dropped, received uint64
	for _, s := range c.shards {
		s.mu.Lock()
		lost += s.stats.LostRecords
		dropped += s.stats.Dropped.Total()
		received += s.stats.Records
		s.mu.Unlock()
	}
	return lossFraction(lost, dropped, received)
}

// Listen binds a UDP listener on addr ("127.0.0.1:0" picks an
// ephemeral port) and starts live mode: the socket pump, one
// supervised worker per shard, the periodic merge and the watchdog.
func (c *Collector) Listen(addr string) error {
	if c.live.Load() {
		return fmt.Errorf("ingest: already listening")
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("ingest: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return fmt.Errorf("ingest: listen: %w", err)
	}
	// Export traffic is bursty (timeout sweeps flush many flows at
	// once); a deep socket buffer absorbs what the rings momentarily
	// cannot. Best-effort — residual kernel drops surface as sequence
	// gaps, which the accounting already covers.
	_ = conn.SetReadBuffer(8 << 20)
	c.conn = conn
	c.stop = make(chan struct{})
	c.live.Store(true)

	c.wg.Add(1)
	go c.pump() //netsamp:ctx-ok Close() closes the UDP socket, which unblocks the read loop
	for _, s := range c.shards {
		c.wg.Add(1)
		go c.superviseShard(s) //netsamp:ctx-ok runLive selects on c.stop; the supervisor returns when it closes
	}
	c.wg.Add(2)
	go c.mergeLoop()
	go c.watchdogLoop()
	return nil
}

// Addr returns the live listener's address, for exporters to dial
// ("" in passive mode).
func (c *Collector) Addr() string {
	if c.conn == nil {
		return ""
	}
	return c.conn.LocalAddr().String()
}

// pump is the single producer for every shard ring: read a datagram,
// validate, account, hand off. It exits when the socket is closed.
func (c *Collector) pump() {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Close
		}
		c.ingest(buf[:n], time.Now().UnixNano())
	}
}

// superviseShard runs one shard's worker under the shared supervisor:
// panics become logged restarts with backoff, per-batch progress
// resets the failure budget, and a worker that exhausts MaxRestarts is
// marked GaveUp (its backlog is shutdown-dropped by Close; the pump
// keeps accounting overload drops meanwhile).
func (c *Collector) superviseShard(s *shard) {
	defer c.wg.Done()
	sup := &supervise.Supervisor{
		MaxFailures: c.cfg.MaxRestarts,
		Backoff:     c.cfg.RestartBackoff,
		Logf:        c.cfg.Logf,
	}
	err := sup.Run(context.Background(), func(ctx context.Context, progress func()) error {
		return s.runLive(c.stop, progress, c.cfg.CapacityPerShard)
	})
	if err != nil {
		s.mu.Lock()
		s.stats.GaveUp = true
		s.mu.Unlock()
		s.gaveUp.Store(true)
		c.cfg.logf("ingest: shard %d worker gave up: %v", s.idx, err)
	}
}

func (c *Collector) mergeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.MergeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			if err := c.MergeNow(); err != nil {
				c.cfg.logf("ingest: merge: %v", err)
			}
		}
	}
}

// watchdogLoop flags shards that hold queued work but make no
// consumption progress across three consecutive checks. A panicking
// worker restarts via its supervisor; a silently wedged one cannot be
// preempted in-process, so the watchdog's job is to make the wedge
// loudly visible (Stalled flag + log) while the bounded ring and the
// pump's drop accounting keep the rest of the tier healthy.
//
// The loop is deliberately lock-free: it reads the shard's atomic
// progress counter and the SPSC ring's cursors, never s.mu. A worker
// that wedges while holding s.mu — the nastiest stall there is — would
// otherwise wedge the watchdog on the same lock and go unreported.
func (c *Collector) watchdogLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.WatchdogEvery)
	defer t.Stop()
	lastConsumed := make([]uint64, len(c.shards))
	stuck := make([]int, len(c.shards))
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for i, s := range c.shards {
				consumed := atomic.LoadUint64(&s.progress)
				queued := s.ring.length()
				if queued > 0 && consumed == lastConsumed[i] && !s.gaveUp.Load() {
					stuck[i]++
					if stuck[i] >= 3 && !s.stalled.Load() {
						s.stalled.Store(true)
						c.cfg.logf("ingest: shard %d stalled: %d datagrams queued, no progress for %d checks", i, queued, stuck[i])
					}
				} else {
					stuck[i] = 0
					if s.stalled.Load() && consumed != lastConsumed[i] {
						s.stalled.Store(false)
						c.cfg.logf("ingest: shard %d recovered", i)
					}
				}
				lastConsumed[i] = consumed
			}
		}
	}
}

// Close shuts the tier down and finalizes the accounting: in live mode
// it stops the pump, lets workers drain their rings, then
// shutdown-drops whatever remains (a GaveUp shard's backlog), and runs
// a final merge. After Close, Queued is zero everywhere and
// received == delivered + dropped holds exactly.
func (c *Collector) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	var err error
	if c.live.Load() {
		c.stopOnce.Do(func() { close(c.stop) })
		err = c.conn.Close()
		c.wg.Wait()
	}
	for _, s := range c.shards {
		s.shutdownDrain()
	}
	if merr := c.MergeNow(); err == nil {
		err = merr
	}
	return err
}
