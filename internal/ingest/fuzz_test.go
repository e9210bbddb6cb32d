package ingest

import (
	"testing"

	"netsamp/internal/netflow"
	"netsamp/internal/packet"
)

// fuzzShardCounts are the shard counts every fuzz input is replayed
// against; the merged result must be identical across all of them.
var fuzzShardCounts = []int{1, 2, 4}

// fuzzOp decodes the fuzz byte stream into a scenario step. The stream
// drives a mix of normal traffic, wire faults (loss gaps, duplicates,
// reorder-heals, corruption) and forced stalls (processing budgets that
// lag arrivals, including none at all).
type fuzzState struct {
	seqs map[uint32]uint32
	// lastHole remembers the most recent simulated loss per exporter so
	// a later op can "heal" it (reordered late arrival).
	lastHole map[uint32][2]uint32 // exporter → (seq, count)
	lastSent map[uint32][]byte
}

// FuzzIngestInvariants replays one fault-injected scenario against
// collectors with 1, 2 and 4 shards and asserts the tier's two core
// properties at every step and at the end:
//
//  1. received == delivered + dropped + queued per shard and per
//     exporter throughout, and exactly (queued = 0) after Close;
//  2. the merged controller view — estimates and per-exporter
//     accounting — is bit-identical across shard counts.
func FuzzIngestInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 40, 2, 2, 6, 0, 3, 10, 5, 0})
	f.Add([]byte{0, 3, 4, 0, 0, 7, 1, 200, 6, 1, 2, 5, 3, 1, 0, 9})
	f.Add([]byte{4, 5, 0, 255, 1, 9, 0, 0, 2, 3, 0, 1, 6, 2})
	// Raw datagrams the pump must reject before attribution (the input is
	// first offered whole, see below): truncated header, declared count
	// with no records, mid-record cuts, trailing garbage, forged empty.
	whole := dgram(1, 0, 3, 0)
	f.Add([]byte{})
	f.Add(make([]byte, packet.HeaderSize))
	f.Add(whole)
	f.Add(whole[:packet.HeaderSize-3])
	f.Add(whole[:packet.HeaderSize])
	f.Add(whole[:packet.HeaderSize+packet.RecordSize+7])
	f.Add(whole[:len(whole)-1])
	f.Add(append(append([]byte{}, whole...), 0xca, 0xfe))
	f.Add(dgram(1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		type outcome struct {
			ests      []netflow.BinEstimate
			exps      []ExporterView
			lost      uint64
			dups      uint64
			malformed uint64
		}
		var base *outcome
		for _, shards := range fuzzShardCounts {
			cfg := testConfig(shards)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := &fuzzState{
				seqs:     map[uint32]uint32{},
				lastHole: map[uint32][2]uint32{},
				lastSent: map[uint32][]byte{},
			}
			// The input doubles as one raw datagram off the wire: nearly
			// always malformed, and then it must move nothing but the
			// malformed counter, identically at every shard count.
			c.Inject(data)
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i], data[i+1]
				st.step(c, op, arg)
				if i%16 == 0 {
					if err := c.Snapshot().CheckInvariant(); err != nil {
						t.Fatalf("shards=%d step %d: %v", shards, i, err)
					}
				}
			}
			c.ProcessAllAvailable()
			if err := c.MergeNow(); err != nil {
				t.Fatal(err)
			}
			v := c.Snapshot()
			if err := v.CheckInvariant(); err != nil {
				t.Fatalf("shards=%d drained: %v", shards, err)
			}
			if v.Queued != 0 {
				t.Fatalf("shards=%d: queued %d after drain", shards, v.Queued)
			}
			if v.Records != v.Delivered+v.Dropped.Total() {
				t.Fatalf("shards=%d: received %d != delivered %d + dropped %d",
					shards, v.Records, v.Delivered, v.Dropped.Total())
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			got := &outcome{ests: c.Estimates(), exps: v.Exporters, lost: v.LostRecords, dups: v.Duplicates, malformed: v.MalformedDatagrams}
			if base == nil {
				base = got
				continue
			}
			// Merged view must be bit-identical to the 1-shard run.
			if got.lost != base.lost || got.dups != base.dups || got.malformed != base.malformed {
				t.Fatalf("shards=%d: lost/dups/malformed %d/%d/%d != %d/%d/%d",
					shards, got.lost, got.dups, got.malformed, base.lost, base.dups, base.malformed)
			}
			if len(got.ests) != len(base.ests) {
				t.Fatalf("shards=%d: %d bins != %d", shards, len(got.ests), len(base.ests))
			}
			for i := range base.ests {
				a, b := base.ests[i], got.ests[i]
				if a.Start != b.Start {
					t.Fatalf("shards=%d bin %d: start %d != %d", shards, i, b.Start, a.Start)
				}
				for k := range a.Sampled {
					if a.Sampled[k] != b.Sampled[k] || a.Estimate(k) != b.Estimate(k) || a.RelStdErr(k) != b.RelStdErr(k) {
						t.Fatalf("shards=%d bin %d od %d: %d/%v/%v != %d/%v/%v",
							shards, i, k, b.Sampled[k], b.Estimate(k), b.RelStdErr(k), a.Sampled[k], a.Estimate(k), a.RelStdErr(k))
					}
				}
			}
			if len(got.exps) != len(base.exps) {
				t.Fatalf("shards=%d: %d exporters != %d", shards, len(got.exps), len(base.exps))
			}
			for i := range base.exps {
				a, b := base.exps[i], got.exps[i]
				a.Shard, b.Shard = 0, 0
				if a != b {
					t.Fatalf("shards=%d exporter %d: %+v != %+v", shards, a.ID, b, a)
				}
			}
		}
	})
}

// step applies one fuzz op to the collector, mirroring the scenario
// bookkeeping so every shard count sees the exact same wire stream.
func (st *fuzzState) step(c *Collector, op, arg byte) {
	exp := uint32(1 + arg%5)
	switch op % 7 {
	case 0: // normal datagram
		count := 1 + int(arg)%8
		b := dgram(exp, st.seqs[exp], count, uint32(60*(arg%10)))
		st.seqs[exp] += uint32(count)
		st.lastSent[exp] = b
		c.Inject(b)
	case 1: // wire loss: skip ahead in the sequence
		st.lastHole[exp] = [2]uint32{st.seqs[exp], uint32(1 + arg%32)}
		st.seqs[exp] += uint32(1 + arg%32)
	case 2: // duplicate the last datagram of this exporter
		if b := st.lastSent[exp]; b != nil {
			c.Inject(b)
		}
	case 3: // reorder-heal: deliver (part of) the last simulated hole late
		if h := st.lastHole[exp]; h[1] > 0 {
			count := int(h[1])
			if count > netflow.MaxRecordsPerDatagram {
				count = netflow.MaxRecordsPerDatagram
			}
			c.Inject(dgram(exp, h[0], count, uint32(60*(arg%10))))
			delete(st.lastHole, exp)
		}
	case 4: // corrupt record payload (accepted, then malformed-dropped)
		count := 1 + int(arg)%4
		b := dgram(exp, st.seqs[exp], count, 120)
		st.seqs[exp] += uint32(count)
		b[packet.HeaderSize] = 0xfe
		c.Inject(b)
	case 5: // partial processing budget on one shard (forced lag)
		c.ProcessAvailable(int(arg)%c.Shards(), int(arg))
	case 6: // mid-stream merge (must not disturb cross-count identity)
		_ = c.MergeNow()
	}
}
