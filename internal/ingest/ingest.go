// Package ingest is the overload-resilient sharded ingest tier: the
// stage between raw export datagrams and the estimator that has to keep
// standing when the input rate exceeds capacity. N collector shards,
// keyed by an exporter-ID hash so one exporter's flow-sequence stream is
// always accounted by one shard, each own a bounded single-producer/
// single-consumer ring of reused datagram buffers. A pump (the UDP read
// loop in live mode, Inject in step mode) validates and accounts each
// datagram, then hands it off lock-free; per-shard workers decode in
// reused buffers (the //netsamp:noalloc discipline), classify records
// into per-OD interval bins, and a periodic merge folds every shard's
// bins into the netflow.Estimator in ascending shard order — integer
// sums, so the merged view is bit-identical at any shard count.
//
// Every queue is bounded and every overflow has an explicit policy:
// DropNewest counts the datagram's records against per-shard and
// per-exporter drop counters; Block waits for ring space up to a
// deadline, then drops. A shard that falls behind first degrades by
// coarsening its batch cadence (one lock acquisition per backlog sweep
// instead of per datagram) before any record is dropped. The accounting
// invariant
//
//	received == delivered + dropped + queued
//
// holds per shard and per exporter at every instant, and with queued = 0
// (exactly) after Close. Drops and flow-sequence losses feed the
// estimator's SetTransportLoss path at merge time, so overload surfaces
// as inflated variance and LowConfidence flags — never as silent
// downward bias.
//
// In live mode each shard worker runs under a supervise.Supervisor: a
// panic (e.g. from a faulty classifier) poisons only the in-flight
// datagram — the restarted worker accounts it as dropped, skips the
// slot, and resumes with all shard stats intact.
package ingest

import (
	"fmt"
	"time"

	"netsamp/internal/netflow"
)

// Policy selects what the pump does when a shard's ring is full.
type Policy int

const (
	// DropNewest rejects the arriving datagram, counting its records in
	// DropStats.Overload (per shard and per exporter). The default: it
	// never stalls the pump, so one slow shard cannot back-pressure the
	// socket and starve the others.
	DropNewest Policy = iota
	// Block makes the pump wait up to Config.BlockDeadline for ring
	// space before dropping. Only meaningful in live mode (a step-mode
	// Inject has no concurrent consumer to wait for and drops
	// immediately).
	Block
)

// String names the policy for logs and flags.
func (p Policy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses the flag spelling of a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop-newest", "drop":
		return DropNewest, nil
	case "block":
		return Block, nil
	default:
		return 0, fmt.Errorf("ingest: unknown overload policy %q (want drop-newest or block)", s)
	}
}

// Config parametrizes a sharded collector.
type Config struct {
	// Shards is the number of collector shards (default 1). Exporters
	// are assigned to shards by an exporter-ID hash, so all sequence
	// accounting for one exporter happens on one shard.
	Shards int
	// RingSize is the per-shard hand-off ring capacity in datagrams,
	// rounded up to a power of two (default 1024). Together with the
	// fixed slot size this bounds the tier's memory exactly.
	RingSize int
	// Policy is the overload policy (default DropNewest).
	Policy Policy
	// BlockDeadline bounds how long a Block-policy pump waits for ring
	// space before dropping (default 1ms).
	BlockDeadline time.Duration
	// CapacityPerShard throttles each live worker to this many records
	// per second (0 = unthrottled). It exists to make overload
	// reproducible: a load test can drive a known multiple of capacity
	// on any hardware.
	CapacityPerShard int
	// IntervalSeconds, Rho and Classifier configure the estimation
	// stage: the shards bin records with Classifier, the merge feeds
	// netflow.NewEstimator(IntervalSeconds, Rho). Leave Rho nil to run
	// the tier as a pure counter (no estimator).
	IntervalSeconds uint32
	Rho             []float64
	Classifier      netflow.ODClassifier
	// MergeEvery is the live merge cadence (default 250ms).
	MergeEvery time.Duration
	// WatchdogEvery is the live stall-check cadence (default 1s). A
	// shard with queued datagrams and no consumption progress for three
	// consecutive checks is flagged Stalled.
	WatchdogEvery time.Duration
	// MaxRestarts bounds consecutive panics of one shard worker before
	// its supervisor gives up (default 5); progress resets the count.
	MaxRestarts int
	// RestartBackoff is the supervisor's initial restart delay
	// (default 10ms).
	RestartBackoff time.Duration
	// Logf, when non-nil, receives restart, stall and give-up lines.
	Logf func(format string, args ...any)
}

// orDefault resolves a zero (or negative) config value to its default.
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// shardOf assigns an exporter ID to a shard: a Fibonacci-hash spread of
// the ID, stable across runs, so per-exporter sequence state never
// migrates between shards.
func shardOf(exporter uint32, n int) int {
	h := (uint64(exporter) + 1) * 0x9e3779b97f4a7c15
	return int((h ^ h>>32) % uint64(n))
}
