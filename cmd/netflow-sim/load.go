package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"netsamp/internal/eval"
	"netsamp/internal/ingest"
	"netsamp/internal/netflow"
	"netsamp/internal/rng"
)

// loadConfig parameterizes the load-generator mode: saturate a sharded
// collector with synthetic export traffic at a chosen multiple of its
// record budget, inject wire faults, and audit the drop accounting.
type loadConfig struct {
	Shards    int
	Ring      int
	Policy    string
	Capacity  int     // per-shard record budget per second
	Multiple  float64 // offered load as a multiple of aggregate capacity
	Duration  time.Duration
	Exporters int
	Seed      uint64
	LossP     float64 // per-datagram probability of a sequence skip (wire loss)
	DupP      float64 // per-datagram probability of a duplicate send
	ReorderP  float64 // per-datagram probability of swapping with the next send

	RequireDrops bool   // fail unless overload actually shed records
	JSONPath     string // write the machine-readable summary here ("" = skip)
}

// loadSummary is the machine-readable result the soak job archives and
// asserts on.
type loadSummary struct {
	Shards          int     `json:"shards"`
	CapacityPerSec  int     `json:"capacity_per_shard_per_sec"`
	OfferedMultiple float64 `json:"offered_multiple"`
	DurationSec     float64 `json:"duration_sec"`
	SentRecords     uint64  `json:"sent_records"`
	SentDatagrams   uint64  `json:"sent_datagrams"`
	SkippedRecords  uint64  `json:"skipped_records"` // injected wire loss
	Received        uint64  `json:"received_records"`
	Delivered       uint64  `json:"delivered_records"`
	DroppedOverload uint64  `json:"dropped_overload"`
	DroppedShutdown uint64  `json:"dropped_shutdown"`
	LostUpstream    uint64  `json:"lost_upstream"`
	Duplicates      uint64  `json:"duplicates"`
	CoarseBatches   uint64  `json:"coarse_batches"`
	Restarts        uint64  `json:"restarts"`
	DropFraction    float64 `json:"drop_fraction"`
	LossFraction    float64 `json:"loss_fraction"`
	HandoffP99Nanos int64   `json:"handoff_p99_nanos"`
	RecordsPerSec   float64 `json:"delivered_records_per_sec"`
	InvariantOK     bool    `json:"invariant_ok"`
}

// runLoad drives one overload soak: Exporters senders blast full
// datagrams at Multiple× the collector's aggregate record budget over
// loopback UDP, with seeded loss/duplicate/reorder faults, then the
// drained collector's books are audited — received must equal
// delivered + dropped exactly, and under overload the Overload bucket
// must be the one that absorbed the excess.
func runLoad(cfg loadConfig) error {
	policy, err := ingest.ParsePolicy(cfg.Policy)
	if err != nil {
		return err
	}
	col, err := ingest.New(ingest.Config{
		Shards:           cfg.Shards,
		RingSize:         cfg.Ring,
		Policy:           policy,
		CapacityPerShard: cfg.Capacity,
	})
	if err != nil {
		return err
	}
	if err := col.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "load: %d shards x %d records/s, offering %.1fx for %v (%d exporters, loss %.3f dup %.3f reorder %.3f)\n",
		cfg.Shards, cfg.Capacity, cfg.Multiple, cfg.Duration, cfg.Exporters, cfg.LossP, cfg.DupP, cfg.ReorderP)

	// Offered rate: Multiple × the aggregate budget, split evenly over
	// the exporters; each sender paces itself in 5ms ticks.
	offered := cfg.Multiple * float64(cfg.Shards*cfg.Capacity)
	perExporter := offered / float64(cfg.Exporters)
	var sent, sentDgrams, skipped atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for e := 0; e < cfg.Exporters; e++ {
		wg.Add(1)
		go func(exp uint32) {
			defer wg.Done()
			conn, err := net.Dial("udp", col.Addr())
			if err != nil {
				fmt.Fprintf(os.Stderr, "load: exporter %d: %v\n", exp, err)
				return
			}
			defer conn.Close()
			src := rng.New(rng.SplitSeed(cfg.Seed, uint64(exp)))
			const tick = 5 * time.Millisecond
			perTick := perExporter * tick.Seconds() / netflow.MaxRecordsPerDatagram
			if perTick < 1 {
				perTick = 1
			}
			seq := uint32(1)
			var held []byte // reordered datagram awaiting its successor
			ticker := time.NewTicker(tick)
			defer ticker.Stop()
			var carry float64
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				carry += perTick
				for ; carry >= 1; carry-- {
					if src.Bernoulli(cfg.LossP) {
						// Wire loss: the datagram is "emitted" (the sequence
						// advances) but never sent.
						skipped.Add(netflow.MaxRecordsPerDatagram)
						seq += netflow.MaxRecordsPerDatagram
						continue
					}
					b := eval.SyntheticDgram(exp, seq, src)
					seq += netflow.MaxRecordsPerDatagram
					send := func(p []byte) {
						conn.Write(p)
						sentDgrams.Add(1)
						sent.Add(netflow.MaxRecordsPerDatagram)
					}
					switch {
					case held != nil:
						send(b)
						send(held)
						held = nil
					case src.Bernoulli(cfg.ReorderP):
						held = b
					default:
						send(b)
						if src.Bernoulli(cfg.DupP) {
							send(b)
						}
					}
				}
			}
		}(uint32(1 + e))
	}

	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	// Let the workers drain what the rings still hold before closing.
	time.Sleep(200 * time.Millisecond)
	if err := col.Close(); err != nil {
		return err
	}

	v := col.Snapshot()
	invErr := v.CheckInvariant()
	var coarse, restarts uint64
	for _, s := range v.Shards {
		coarse += s.CoarseBatches
		restarts += s.Restarts
	}
	sum := loadSummary{
		Shards:          cfg.Shards,
		CapacityPerSec:  cfg.Capacity,
		OfferedMultiple: cfg.Multiple,
		DurationSec:     cfg.Duration.Seconds(),
		SentRecords:     sent.Load(),
		SentDatagrams:   sentDgrams.Load(),
		SkippedRecords:  skipped.Load(),
		Received:        v.Records,
		Delivered:       v.Delivered,
		DroppedOverload: v.Dropped.Overload,
		DroppedShutdown: v.Dropped.Shutdown,
		LostUpstream:    v.LostRecords,
		Duplicates:      v.Duplicates,
		CoarseBatches:   coarse,
		Restarts:        restarts,
		LossFraction:    v.LossFraction,
		HandoffP99Nanos: int64(v.HandoffP99),
		InvariantOK:     invErr == nil,
	}
	if v.Records > 0 {
		sum.DropFraction = float64(v.Dropped.Total()) / float64(v.Records)
	}
	if cfg.Duration > 0 {
		sum.RecordsPerSec = float64(v.Delivered) / cfg.Duration.Seconds()
	}
	fmt.Fprintf(os.Stderr,
		"load: sent %d records (%d dgrams, %d skipped as wire loss); received %d, delivered %d (%.0f rec/s), dropped %d overload + %d shutdown (%.3f of received), lost upstream %d, dup %d\n",
		sum.SentRecords, sum.SentDatagrams, sum.SkippedRecords, sum.Received, sum.Delivered,
		sum.RecordsPerSec, sum.DroppedOverload, sum.DroppedShutdown, sum.DropFraction, sum.LostUpstream, sum.Duplicates)
	fmt.Fprintf(os.Stderr, "load: coarse batches %d, restarts %d, hand-off p99 %v, estimator loss fraction %.4f\n",
		sum.CoarseBatches, sum.Restarts, time.Duration(sum.HandoffP99Nanos), sum.LossFraction)

	if cfg.JSONPath != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if invErr != nil {
		return fmt.Errorf("accounting invariant violated: %w", invErr)
	}
	if cfg.RequireDrops && v.Dropped.Overload == 0 {
		return fmt.Errorf("overload soak shed nothing: offered %.1fx capacity but Overload bucket is zero", cfg.Multiple)
	}
	return nil
}
