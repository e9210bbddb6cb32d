// Package netflow implements the router-embedded monitoring substrate
// the paper configures: a sampled flow table with idle and active
// timeouts (the NetFlow model), a UDP exporter with sequence numbers, a
// collector with loss accounting, and the post-processing step that bins
// records into measurement intervals and renormalizes sampled counts by
// the inverse sampling rate (paper, Section V-A).
//
// Time is simulated trace time in whole seconds (uint32), not wall-clock
// time, so pipelines are deterministic and replayable.
package netflow

import (
	"sort"
	"sync"

	"netsamp/internal/packet"
	"netsamp/internal/rng"
)

// Config parametrizes a monitor's flow table.
type Config struct {
	// SamplingRate is the packet sampling probability p of this monitor.
	// Only sampled packets update the flow table (sampled NetFlow).
	SamplingRate float64
	// IdleTimeout expires a flow that has seen no sampled packet for this
	// many seconds (the paper's GEANT feed uses 30 s).
	IdleTimeout uint32
	// ActiveTimeout force-exports a flow after this many seconds of
	// activity, bounding record latency (0 disables).
	ActiveTimeout uint32
	// MaxEntries bounds the table; when full, observing a new flow
	// evicts and exports the oldest-started entry (0 means unbounded).
	MaxEntries int
	// Coordination optionally enables cSamp-style coordinated sampling:
	// flows of measured OD pairs are hash-filtered to this monitor's
	// assigned ranges before the sampling coin (see CoordConfig). Nil
	// keeps the plain independent-sampling behavior.
	Coordination *CoordConfig
}

// DefaultConfig mirrors the paper's GEANT configuration: 1/1000
// sampling, 30 s idle timeout, 60 s active timeout.
func DefaultConfig() Config {
	return Config{SamplingRate: 0.001, IdleTimeout: 30, ActiveTimeout: 60}
}

// TableStats counts a flow table's activity.
type TableStats struct {
	ObservedPackets uint64 // packets offered to the monitor
	SampledPackets  uint64 // packets that passed sampling
	ActiveFlows     int    // entries currently in the table
	ExpiredFlows    uint64 // records emitted by timeouts or flush
	EvictedFlows    uint64 // records emitted by table pressure
}

// FlowTable is one monitor's sampled flow cache. It is safe for
// concurrent use.
type FlowTable struct {
	monitorID uint16
	cfg       Config

	mu      sync.Mutex
	rng     *rng.Source                         //netsamp:guardedby mu sampling decisions must be serialized for replay determinism
	entries map[packet.FiveTuple]*packet.Record //netsamp:guardedby mu
	stats   TableStats                          //netsamp:guardedby mu
}

// NewFlowTable returns a flow table for the given monitor. src drives
// the sampling decisions; pass a Split of the experiment seed for
// reproducibility.
func NewFlowTable(monitorID uint16, cfg Config, src *rng.Source) *FlowTable {
	return &FlowTable{
		monitorID: monitorID,
		cfg:       cfg,
		rng:       src,
		entries:   make(map[packet.FiveTuple]*packet.Record),
	}
}

// Observe offers one packet to the monitor at trace time now. It applies
// the sampling decision and, if the packet is sampled, updates (or
// creates) the flow entry. It reports whether the packet was sampled.
// Evicted records due to table pressure are returned so the caller can
// export them.
func (ft *FlowTable) Observe(key packet.FiveTuple, bytes uint32, now uint32) (sampled bool, evicted []packet.Record) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.stats.ObservedPackets++
	rate := ft.cfg.SamplingRate
	if cc := ft.cfg.Coordination; cc != nil {
		// Hash filter first: a measured flow outside this monitor's
		// range belongs to another monitor on the path and must not be
		// double-sampled here.
		r, consider := cc.Decide(key, rate)
		if !consider {
			return false, nil
		}
		rate = r
	}
	if !ft.rng.Bernoulli(rate) {
		return false, nil
	}
	ft.stats.SampledPackets++
	if e, ok := ft.entries[key]; ok {
		e.Packets++
		e.Bytes += uint64(bytes)
		e.End = now
		return true, nil
	}
	if ft.cfg.MaxEntries > 0 && len(ft.entries) >= ft.cfg.MaxEntries {
		evicted = append(evicted, ft.evictOldestLocked())
	}
	ft.entries[key] = &packet.Record{
		Key:       key,
		MonitorID: ft.monitorID,
		Packets:   1,
		Bytes:     uint64(bytes),
		Start:     now,
		End:       now,
	}
	return true, evicted
}

// evictOldestLocked removes and returns the entry with the earliest
// start time, ties broken by the flow-key total order so the victim is
// independent of map iteration order. Caller holds the lock and has
// checked the table is non-empty.
//
//netsamp:holds mu
func (ft *FlowTable) evictOldestLocked() packet.Record {
	var oldestKey packet.FiveTuple
	var oldest *packet.Record
	//netsamp:nondeterministic-ok total-order min selection: (Start, key) is a strict order, so the winner is iteration-order independent
	for k, e := range ft.entries {
		if oldest == nil || e.Start < oldest.Start || (e.Start == oldest.Start && k.Less(oldestKey)) {
			oldestKey, oldest = k, e
		}
	}
	delete(ft.entries, oldestKey)
	ft.stats.EvictedFlows++
	return *oldest
}

// sortRecords orders a sweep's emitted records deterministically: by
// start time, then by the flow-key total order (keys are unique in the
// table, so this is a strict order).
func sortRecords(recs []packet.Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].Key.Less(recs[j].Key)
	})
}

// Expire emits the records whose idle or active timeout has passed at
// trace time now, removing them from the table, in deterministic
// (start-time, flow-key) order. Call it periodically (routers run this
// once a second).
func (ft *FlowTable) Expire(now uint32) []packet.Record {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var out []packet.Record
	//netsamp:nondeterministic-ok the emitted set is order-free (membership only); sortRecords below fixes the output order
	for k, e := range ft.entries {
		idle := now >= e.End && now-e.End >= ft.cfg.IdleTimeout
		active := ft.cfg.ActiveTimeout > 0 && now >= e.Start && now-e.Start >= ft.cfg.ActiveTimeout
		if idle || active {
			out = append(out, *e)
			delete(ft.entries, k)
			ft.stats.ExpiredFlows++
		}
	}
	sortRecords(out)
	return out
}

// Flush emits every remaining record (end of trace) in deterministic
// (start-time, flow-key) order and empties the table.
func (ft *FlowTable) Flush() []packet.Record {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	out := make([]packet.Record, 0, len(ft.entries))
	//netsamp:nondeterministic-ok the emitted set is order-free (membership only); sortRecords below fixes the output order
	for k, e := range ft.entries {
		out = append(out, *e)
		delete(ft.entries, k)
		ft.stats.ExpiredFlows++
	}
	sortRecords(out)
	return out
}

// Stats returns a snapshot of the table's counters.
func (ft *FlowTable) Stats() TableStats {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	s := ft.stats
	s.ActiveFlows = len(ft.entries)
	return s
}
