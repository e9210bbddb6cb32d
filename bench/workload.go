package main

import (
	"fmt"
	"strconv"

	"netsamp/internal/faults"
	"netsamp/internal/geant"
	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/prefix"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// intervalSec is the paper's measurement bin.
const intervalSec = 300

// structureSeed fixes every workload's topology, base loads, base OD
// sizes and schedule (drift, crashes, solver overruns, link failures).
// The run seed (-seed) drives the sampling draws and the wire's faults,
// so the timing metrics of two seeds describe the same problem and
// their spread is measurement noise, not instance-to-instance variance
// (see generator).
const structureSeed = 1

// spec is one named workload. Names are final: later issues cite them.
type spec struct {
	name string

	// links selects topology.GenerateScale at that size; 0 selects GEANT.
	links int
	// pairs caps the generated OD pairs (0 = the generator's default).
	pairs int
	// theta is the budget: packets per interval on GEANT, a fraction of
	// Σ U_i on generated instances.
	theta float64

	// intervals is the interval count of a full-length run (-seconds at
	// its BENCHMARK.json value); shorter runs scale it down, never below
	// minIntervals.
	intervals    int
	minIntervals int
	// checkpointEvery is the snapshot cadence in intervals.
	checkpointEvery int

	// maxRecs is the largest datagram in records; minRecs < maxRecs draws
	// each datagram's size uniformly in [minRecs, maxRecs].
	minRecs, maxRecs int
	// flowBase is the smallest flow-size class in packets, sizeScale
	// multiplies every OD pair's base size.
	flowBase  int64
	sizeScale float64

	// vol is the per-interval log-volatility of the mean-reverting walks
	// that move link loads and OD sizes; stepP adds occasional ×[½, 2]
	// steps to a link's load.
	vol   float64
	stepP float64

	// wire and crash faults (zero = clean).
	faults faults.Config
	// reroute fails a different non-edge link every interval, so routing
	// is recomputed inside the interval and every plan-cache lookup
	// misses.
	reroute bool
	// daemonIntervals sizes the daemon.Open+Run reference measurement of
	// the traced run (0 = skip).
	daemonIntervals int
}

// specs lists the four workloads in the order -workload all runs them;
// BENCHMARK.json and README.md say why each exists.
func specs() []*spec {
	return []*spec{
		{
			name: "geant-flood",
			// θ far above the paper's, so that the optimum samples the
			// JANET pairs hard enough to emit ≈1M records per interval.
			theta:           4e7,
			intervals:       200,
			minIntervals:    8,
			checkpointEvery: 8,
			minRecs:         netflow.MaxRecordsPerDatagram,
			maxRecs:         netflow.MaxRecordsPerDatagram,
			flowBase:        2,
			sizeScale:       1,
			vol:             0.02,
		},
		{
			name:            "geant-paper",
			theta:           100000,
			intervals:       2016,
			minIntervals:    16,
			checkpointEvery: 1,
			minRecs:         1,
			maxRecs:         4,
			flowBase:        200,
			sizeScale:       1,
			vol:             0.02,
			faults: faults.Config{
				DatagramLoss:    0.01,
				DatagramDup:     0.005,
				DatagramReorder: 0.01,
				MonitorCrash:    0.02,
				MeanOutage:      2,
				SolverOverrun:   0.01,
			},
			daemonIntervals: 2000,
		},
		{
			name:            "isp-drift",
			links:           300,
			theta:           0.05,
			intervals:       200,
			minIntervals:    8,
			checkpointEvery: 8,
			minRecs:         netflow.MaxRecordsPerDatagram,
			maxRecs:         netflow.MaxRecordsPerDatagram,
			flowBase:        40,
			sizeScale:       0.5,
			vol:             0.05,
			stepP:           0.01,
		},
		{
			name:            "isp-reroute",
			links:           800,
			theta:           0.05,
			intervals:       12,
			minIntervals:    3,
			checkpointEvery: 8,
			minRecs:         netflow.MaxRecordsPerDatagram,
			maxRecs:         netflow.MaxRecordsPerDatagram,
			flowBase:        40,
			sizeScale:       0.1,
			vol:             0.02,
			reroute:         true,
		},
	}
}

func specByName(name string) (*spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// linkPair is one (OD pair, traffic fraction) incidence of a link.
type linkPair struct {
	pair int32
	frac float64
}

// world is a workload's generated universe at interval 0: the static
// structure the generator thins traffic over and the program under test
// is configured with.
type world struct {
	spec  *spec
	graph *topology.Graph
	// matrix is the routing in effect; reroute replaces it per interval.
	matrix *routing.Matrix
	// cands is the monitorable link set of matrix.
	cands []topology.LinkID
	// baseLoads is U_i (packets/second) per LinkID at interval 0.
	baseLoads []float64
	// baseSize is the true OD size in packets per interval at drift 1.
	baseSize []float64
	// budget is θ as a sampled packet rate.
	budget float64
	// failable lists the links reroute may fail (both endpoints above
	// the edge tier, so every pair stays routable).
	failable []topology.LinkID

	table    *prefix.Table
	classify netflow.ODClassifier
}

// pairPrefix is the /24 the generator addresses OD pair k's flows to:
// 10.(k>>8).(k&255).0/24. One prefix per pair, because the classifier
// resolves a pair from the destination address alone.
func pairPrefix(k int) packet.Addr {
	return packet.Addr(10<<24 | uint32(k)<<8)
}

// pairOfAddr inverts pairPrefix (generator-side ground truth only).
func pairOfAddr(a packet.Addr) int {
	return int(uint32(a)>>8) & 0xffff
}

// buildWorld is the set-up phase's structural half: topology, routing,
// traffic model and prefix table.
func buildWorld(s *spec) (*world, error) {
	w := &world{spec: s}
	if s.links == 0 {
		sc, err := geant.Build(structureSeed)
		if err != nil {
			return nil, err
		}
		w.graph = sc.Graph
		w.matrix = sc.Matrix
		w.cands = sc.MonitorLinks
		w.baseLoads = sc.Loads
		w.baseSize = make([]float64, len(sc.Rates))
		for k, r := range sc.Rates {
			w.baseSize[k] = r * intervalSec * s.sizeScale
		}
		w.budget = s.theta / intervalSec
	} else {
		inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: structureSeed, Links: s.links, Pairs: s.pairs, ECMP: true})
		if err != nil {
			return nil, err
		}
		w.graph = inst.Graph
		w.matrix = matrixOf(inst)
		w.cands = w.matrix.LinkSet()
		w.baseLoads = inst.Loads
		w.baseSize = make([]float64, inst.NumPairs())
		for k, c := range inst.InvSizes {
			w.baseSize[k] = s.sizeScale / c
		}
		w.budget = s.theta * inst.MaxSampledRate()
		for i, l := range inst.Graph.Links() {
			if inst.Tier[l.Src] != topology.TierEdge && inst.Tier[l.Dst] != topology.TierEdge {
				w.failable = append(w.failable, topology.LinkID(i))
			}
		}
	}
	if len(w.matrix.Pairs) > 1<<16 {
		return nil, fmt.Errorf("%d OD pairs exceed the 65536 pair prefixes", len(w.matrix.Pairs))
	}
	w.table = &prefix.Table{}
	for k := range w.matrix.Pairs {
		if err := w.table.Insert(pairPrefix(k), 24, int32(k)); err != nil {
			return nil, err
		}
	}
	w.classify = netflow.PrefixClassifier(w.table)
	return w, nil
}

// matrixOf converts a generated instance's CSR routing into the
// routing.Matrix the controller consumes.
func matrixOf(inst *topology.ScaleInstance) *routing.Matrix {
	n := inst.NumPairs()
	m := &routing.Matrix{
		Pairs: make([]routing.ODPair, n),
		Rows:  make([][]topology.LinkID, n),
		Fracs: make([][]float64, n),
	}
	for k := 0; k < n; k++ {
		lo, hi := inst.Start[k], inst.Start[k+1]
		row := make([]topology.LinkID, hi-lo)
		for j := lo; j < hi; j++ {
			row[j-lo] = topology.LinkID(inst.Links[j])
		}
		m.Pairs[k] = routing.ODPair{Name: "od" + strconv.Itoa(k), Src: inst.PairSrc[k], Dst: inst.PairDst[k]}
		m.Rows[k] = row
		m.Fracs[k] = inst.Fracs[lo:hi]
	}
	return m
}

// pairsByLink inverts a routing matrix: for every LinkID, the pairs
// crossing it with their traffic fractions, in pair order.
func pairsByLink(m *routing.Matrix, numLinks int) [][]linkPair {
	out := make([][]linkPair, numLinks)
	for k, row := range m.Rows {
		for j, lid := range row {
			f := 1.0
			if m.Fracs != nil {
				f = m.Fracs[k][j]
			}
			out[lid] = append(out[lid], linkPair{pair: int32(k), frac: f})
		}
	}
	return out
}
