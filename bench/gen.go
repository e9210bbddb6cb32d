package main

import (
	"math"

	"netsamp/internal/faults"
	"netsamp/internal/packet"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// Flow-size classes: every OD pair's flows fall into four classes of
// flowBase·classMul packets, a crude heavy tail (60% mice, 2% elephants
// carrying 28% of the packets).
var (
	classMul  = [...]int64{1, 4, 16, 64}
	classFrac = [...]float64{0.60, 0.28, 0.10, 0.02}
)

// meanClassMul is Σ classFrac·classMul, the mean flow size in units of
// flowBase.
const meanClassMul = 0.60*1 + 0.28*4 + 0.10*16 + 0.02*64

type classCounts [len(classMul)]int64

// intervalInput is everything one interval hands the program under
// test, plus the generator's ground truth about it.
type intervalInput struct {
	t int
	// start is the interval's first second (records carry start times
	// inside [start, start+intervalSec)).
	start uint32
	// dgrams are the export datagrams in arrival order, after the wire.
	dgrams  [][]byte
	records int // records in dgrams, duplicates included
	// down lists candidate monitors silent this interval (crashed).
	down []topology.LinkID
	// failSolve is the injected solver overrun.
	failSolve bool
	// failed is the link reroute took down this interval (-1 = none).
	failed topology.LinkID
	// monSampled[i] is monitor i's out-of-band counter: every packet it
	// sampled this interval, background included.
	monSampled []uint64

	// Ground truth.
	// size[k] is OD pair k's true packet count.
	size []int64
	// delivered[k] is the sampled packets of pair k in dgrams.
	delivered []uint64
	// seqExpect[e] is what exporter e's Received + LostRecords must read
	// once dgrams are accounted (faulty wire only).
	seqExpect map[uint32]uint64
}

// dgRef locates one encoded datagram in the arena (offsets, because the
// arena grows while a monitor's datagrams are being packed).
type dgRef struct{ off, n int }

// generator turns the deployed plan into the next interval's datagrams.
// Sampling is per packet and independent per monitor, and ECMP is
// modelled as per-packet splitting (a packet of pair k crosses link i
// with probability f_ki), so the sampled count of pair k is a sum of
// Binomial(S, f_ki·p_i) draws: exactly the paper's linear rate model
// ρ_k = Σ f_ki·p_i with binomial variance, which is what the SRE
// prediction (1−ρ)/ρ·E[1/S] assumes.
//
// Two random streams drive it. The schedule — how loads and OD sizes
// drift, which monitors crash, which solves overrun — comes from the
// structure seed and is the same in every run; the run seed drives the
// sampling draws, the record order and keys, and the wire's faults. Two
// seeds therefore watch the same week of traffic through different
// sampling noise, and their timing differs by measurement noise only.
type generator struct {
	w *world
	// r is the run seed's stream, walk the schedule's.
	r, walk *rng.Source
	// sched is the schedule's crash and overrun plan, wirePlan the run
	// seed's datagram-fault plan.
	sched, wirePlan *faults.Plan
	wire            bool
	chans           map[topology.LinkID]*faults.Channel
	// byLink inverts the routing traffic follows; under reroute it comes
	// from the generator's own recomputation, never from the driver's.
	byLink [][]linkPair

	// Mean-reverting log-walks of link loads and OD sizes.
	loadWalk []float64
	sizeWalk []float64
	loads    []float64 // true U_i this interval

	seq    []uint32 // next flow sequence per exporter (indexed by LinkID)
	arena  []byte
	perMon [][]dgRef
	// pending holds the monitor being generated's records before they
	// are shuffled and encoded, packed as pair | packets<<16.
	pending  []uint64
	counts   []classCounts
	in       intervalInput
	lastFail topology.LinkID

	// Wire accounting per exporter for the sequence check: the highest
	// sequence end that arrived, the sequence of the latest arrival (a
	// duplicate repeats it) and the records that arrived twice.
	maxEnd  map[uint32]uint32
	lastSeq map[uint32]uint32
	dupRecs map[uint32]uint64
}

func newGenerator(w *world, seed uint64) (*generator, error) {
	fc := w.spec.faults
	fc.Seed = structureSeed
	sched, err := faults.NewPlan(fc)
	if err != nil {
		return nil, err
	}
	fc.Seed = seed
	wirePlan, err := faults.NewPlan(fc)
	if err != nil {
		return nil, err
	}
	nl := w.graph.NumLinks()
	np := len(w.matrix.Pairs)
	g := &generator{
		w:        w,
		r:        rng.New(rng.SplitSeed(seed, 0x67656e)),
		walk:     rng.New(rng.SplitSeed(structureSeed, 0x77616c6b)),
		sched:    sched,
		wirePlan: wirePlan,
		wire:     fc.DatagramLoss > 0 || fc.DatagramDup > 0 || fc.DatagramReorder > 0,
		chans:    make(map[topology.LinkID]*faults.Channel),
		byLink:   pairsByLink(w.matrix, nl),
		loadWalk: make([]float64, nl),
		sizeWalk: make([]float64, np),
		loads:    append([]float64(nil), w.baseLoads...),
		seq:      make([]uint32, nl),
		perMon:   make([][]dgRef, nl),
		counts:   make([]classCounts, np),
		lastFail: -1,
		maxEnd:   make(map[uint32]uint32),
		lastSeq:  make(map[uint32]uint32),
		dupRecs:  make(map[uint32]uint64),
	}
	g.in.monSampled = make([]uint64, nl)
	g.in.size = make([]int64, np)
	g.in.delivered = make([]uint64, np)
	g.in.seqExpect = make(map[uint32]uint64)
	return g, nil
}

// flowsOf returns pair k's flow count per class and its true size at the
// current walk position.
func (g *generator) flowsOf(k int) (n classCounts, size int64) {
	base := g.w.spec.flowBase
	flows := g.w.baseSize[k] * math.Exp(g.sizeWalk[k]) / (meanClassMul * float64(base))
	for c := range classMul {
		n[c] = int64(flows*classFrac[c] + 0.5)
		size += n[c] * base * classMul[c]
	}
	if size == 0 {
		n[0], size = 1, base
	}
	return n, size
}

// sizes returns the true OD sizes at the current walk position; before
// the first interval that is what the cold phase's E[1/S] is built from.
func (g *generator) sizes() []int64 {
	out := make([]int64, len(g.sizeWalk))
	for k := range out {
		_, out[k] = g.flowsOf(k)
	}
	return out
}

// advance moves the walks one interval: x ← 0.98·x + vol·N(0,1), plus an
// occasional step of up to ±ln 2 on a link's load.
func (g *generator) advance() {
	s := g.w.spec
	for i := range g.loadWalk {
		g.loadWalk[i] = 0.98*g.loadWalk[i] + s.vol*g.walk.NormFloat64()
		if s.stepP > 0 && g.walk.Bernoulli(s.stepP) {
			g.loadWalk[i] += (2*g.walk.Float64() - 1) * math.Ln2
		}
		g.loads[i] = g.w.baseLoads[i] * math.Exp(g.loadWalk[i])
	}
	for k := range g.sizeWalk {
		g.sizeWalk[k] = 0.98*g.sizeWalk[k] + s.vol*g.walk.NormFloat64()
	}
}

// reroute fails interval t's link of the schedule (restoring the
// previous one) and recomputes the routing traffic follows. The schedule
// is a fixed stride through the failable links: it is part of the
// workload's structure, not of the seed.
func (g *generator) reroute(t int) error {
	if g.lastFail >= 0 {
		g.w.graph.SetDown(g.lastFail, false)
	}
	g.lastFail = g.w.failable[(t*7+3)%len(g.w.failable)]
	g.w.graph.SetDown(g.lastFail, true)
	m, err := routing.BuildMatrixECMP(routing.ComputeTable(g.w.graph), g.w.matrix.Pairs)
	if err != nil {
		return err
	}
	g.byLink = pairsByLink(m, g.w.graph.NumLinks())
	return nil
}

// interval generates interval t under the deployed per-link rates. The
// returned input aliases generator-owned buffers and is valid until the
// next call.
func (g *generator) interval(t int, rates map[topology.LinkID]float64) (*intervalInput, error) {
	in := &g.in
	in.t = t
	in.start = uint32(t) * intervalSec
	in.failed = -1
	if t > 0 {
		g.advance()
	}
	if g.w.spec.reroute {
		if err := g.reroute(t); err != nil {
			return nil, err
		}
		in.failed = g.lastFail
	}
	in.failSolve = g.sched.SolverOverrun(t)
	in.down = g.sched.DownSet(t, g.w.cands)
	silent := map[topology.LinkID]bool{in.failed: true}
	for _, lid := range in.down {
		silent[lid] = true
	}
	for k := range in.size {
		in.delivered[k] = 0
		g.counts[k], in.size[k] = g.flowsOf(k)
	}

	g.arena = g.arena[:0]
	for i := range in.monSampled {
		in.monSampled[i] = 0
		g.perMon[i] = g.perMon[i][:0]
	}
	base := g.w.spec.flowBase
	monitors := topology.SortedKeys(rates)
	for _, lid := range monitors {
		p := rates[lid]
		if !(p > 0) || silent[lid] {
			continue
		}
		in.monSampled[lid] = uint64(g.r.Binomial(int64(g.loads[lid]*intervalSec+0.5), p))
		g.pending = g.pending[:0]
		for _, lp := range g.byLink[lid] {
			pe := math.Min(1, lp.frac*p)
			for c, n := range g.counts[lp.pair] {
				if n > 0 {
					g.thin(int(lp.pair), n, base*classMul[c], pe)
				}
			}
		}
		g.pack(lid)
	}
	g.deliver(monitors)
	return in, nil
}

// thin emits one record per flow of a class that had at least one packet
// sampled at rate p. When few flows are hit it draws the number of hit
// flows first and then each zero-truncated count, so the cost follows
// the records emitted, not the flows that exist.
func (g *generator) thin(pair int, flows, size int64, p float64) {
	// Counts are drawn by inverse CDF, walking the binomial pmf up from
	// 0 (or from 1 when zero is excluded) at the smaller of p and 1−p.
	flip := p > 0.5
	if flip {
		p = 1 - p
	}
	n := float64(size)
	pm0 := math.Pow(1-p, n)
	odds := p / (1 - p)
	walk := func(c int64, pm float64) int64 {
		u := g.r.Float64() * (1 - pm0*float64(c)) // c = 1 renormalises to the zero-truncated law
		for cum := pm; u > cum && c < size; cum += pm {
			pm *= float64(size-c) / float64(c+1) * odds
			c++
		}
		return c
	}
	switch {
	case n*p > 500:
		// The walk would start below the smallest float64.
		for f := int64(0); f < flows; f++ {
			c := g.r.Binomial(size, p)
			if flip {
				c = size - c
			}
			if c > 0 {
				g.emit(pair, uint64(c))
			}
		}
	case flip || pm0 < 0.5 || flows <= 4:
		for f := int64(0); f < flows; f++ {
			c := walk(0, pm0)
			if flip {
				c = size - c
			}
			if c > 0 {
				g.emit(pair, uint64(c))
			}
		}
	default:
		for hit := g.r.Binomial(flows, 1-pm0); hit > 0; hit-- {
			g.emit(pair, uint64(walk(1, n*odds*pm0)))
		}
	}
}

func (g *generator) emit(pair int, packets uint64) {
	g.pending = append(g.pending, uint64(pair)|packets<<16)
}

// pack shuffles monitor lid's records (flows expire in no particular
// order) and encodes them into datagrams appended to the arena. On a
// clean wire what is packed is what arrives, so the ground truth is
// tallied here; a faulty wire tallies on arrival instead.
func (g *generator) pack(lid topology.LinkID) {
	recs := g.pending
	for i := len(recs) - 1; i > 0; i-- {
		j := g.r.Intn(i + 1)
		recs[i], recs[j] = recs[j], recs[i]
	}
	s := g.w.spec
	rec := packet.Record{MonitorID: uint16(lid)}
	rec.Key.DstPort, rec.Key.Proto = 443, packet.ProtoTCP
	for len(recs) > 0 {
		n := s.maxRecs
		if s.minRecs < s.maxRecs {
			n = s.minRecs + g.r.Intn(s.maxRecs-s.minRecs+1)
		}
		n = min(n, len(recs))
		off := len(g.arena)
		h := packet.Header{Count: uint8(n), Seq: g.seq[lid], Exporter: uint32(lid) + 1}
		g.arena = h.AppendTo(g.arena)
		for _, v := range recs[:n] {
			pair, packets := int(v&0xffff), v>>16
			x := g.r.Uint64()
			rec.Key.Src = packet.Addr(172<<24 | uint32(x)&0xffffff)
			rec.Key.Dst = pairPrefix(pair) | packet.Addr(x>>24&0xff)
			rec.Key.SrcPort = uint16(x >> 40)
			rec.Packets, rec.Bytes = packets, packets*500
			rec.Start = g.in.start + uint32(x>>32)%intervalSec
			rec.End = rec.Start
			g.arena = rec.AppendTo(g.arena)
			if !g.wire {
				g.in.delivered[pair] += packets
			}
		}
		g.seq[lid] += uint32(n)
		g.perMon[lid] = append(g.perMon[lid], dgRef{off, len(g.arena) - off})
		recs = recs[n:]
	}
}

// deliver interleaves the monitors' datagrams round-robin, passes them
// through the faulty wire when the workload has one, and tallies what
// arrived. An exporter's very first datagram always travels clean, so
// its sequence tracking starts from a known point.
func (g *generator) deliver(monitors []topology.LinkID) {
	in := &g.in
	in.dgrams = in.dgrams[:0]
	in.records = 0
	arrive := func(b []byte) {
		in.dgrams = append(in.dgrams, b)
		in.records += int(b[3]) // the header's record count
		if g.wire {
			g.tally(b)
		}
	}
	for round, sent := 0, true; sent; round++ {
		sent = false
		for _, lid := range monitors {
			if round >= len(g.perMon[lid]) {
				continue
			}
			sent = true
			ref := g.perMon[lid][round]
			b := g.arena[ref.off : ref.off+ref.n]
			ch := g.chans[lid]
			if g.wire && ch == nil {
				g.chans[lid] = g.wirePlan.Channel(uint32(lid) + 1)
			}
			if ch == nil {
				arrive(b)
			} else {
				ch.Transmit(b, arrive)
			}
		}
	}
	// A datagram held back by a reorder fault still arrives inside its
	// interval.
	for _, lid := range monitors {
		if ch := g.chans[lid]; ch != nil {
			ch.Flush(arrive)
		}
	}
	for e, end := range g.maxEnd {
		in.seqExpect[e] = uint64(end) + g.dupRecs[e]
	}
}

// tally accounts one datagram that arrived over the faulty wire in the
// ground truth.
func (g *generator) tally(b []byte) {
	var h packet.Header
	if h.DecodeFromBytes(b) != nil {
		return
	}
	var rec packet.Record
	for off := packet.HeaderSize; off+packet.RecordSize <= len(b); off += packet.RecordSize {
		if rec.DecodeFromBytes(b[off:]) == nil {
			g.in.delivered[pairOfAddr(rec.Key.Dst)] += rec.Packets
		}
	}
	// The wire duplicates a datagram right behind the original.
	if seq, seen := g.lastSeq[h.Exporter]; seen && seq == h.Seq {
		g.dupRecs[h.Exporter] += uint64(h.Count)
	}
	g.lastSeq[h.Exporter] = h.Seq
	if end := h.Seq + uint32(h.Count); end > g.maxEnd[h.Exporter] {
		g.maxEnd[h.Exporter] = end
	}
}
