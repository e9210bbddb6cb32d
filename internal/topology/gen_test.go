package topology_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"testing"

	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// The generator's contract: exact link-count targets, a valid three-tier
// structure, bitwise seed-determinism, and routing rows identical to the
// ones internal/routing builds over the same graph.

func mustGenerate(t *testing.T, cfg topology.GenConfig) *topology.ScaleInstance {
	t.Helper()
	inst, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	return inst
}

func TestScaleGenConfigHitsLinkTargets(t *testing.T) {
	for _, links := range []int{300, 1000, 2500, 4321, 5000, 10000} {
		cfg, err := topology.ScaleGenConfig(topology.ScaleConfig{Seed: 1, Links: links, Pairs: 40})
		if err != nil {
			t.Fatalf("ScaleGenConfig(%d): %v", links, err)
		}
		inst := mustGenerate(t, cfg)
		if got := inst.Graph.NumLinks(); got != links {
			t.Errorf("links = %d: generated %d links", links, got)
		}
		if err := inst.Graph.Validate(); err != nil {
			t.Errorf("links = %d: %v", links, err)
		}
	}
}

func TestScaleGenConfigRejectsTinyTargets(t *testing.T) {
	if _, err := topology.ScaleGenConfig(topology.ScaleConfig{Seed: 1, Links: 100}); err == nil {
		t.Fatal("ScaleGenConfig(100 links) succeeded, want error")
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	base := topology.GenConfig{Seed: 1, CoreNodes: 6, AggNodes: 4, EdgeNodes: 6, Pairs: 10}
	cases := []func(*topology.GenConfig){
		func(c *topology.GenConfig) { c.CoreNodes = 5 },  // odd
		func(c *topology.GenConfig) { c.CoreNodes = 2 },  // too small
		func(c *topology.GenConfig) { c.EdgeNodes = 1 },  // too small
		func(c *topology.GenConfig) { c.Pairs = 0 },      // no pairs
		func(c *topology.GenConfig) { c.Pairs = 31 },     // > e·(e−1)
		func(c *topology.GenConfig) { c.ExtraLinks = 4 }, // out of range
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := topology.Generate(cfg); err == nil {
			t.Errorf("case %d: Generate(%+v) succeeded, want error", i, cfg)
		}
	}
}

func TestGenerateSeedDeterminism(t *testing.T) {
	cfg, err := topology.ScaleGenConfig(topology.ScaleConfig{Seed: 42, Links: 1000, Pairs: 500, ECMP: true})
	if err != nil {
		t.Fatal(err)
	}
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	// Bitwise identity of every emitted array: the instance is a pure
	// function of the config.
	if !reflect.DeepEqual(a.Loads, b.Loads) {
		t.Error("Loads differ across identical configs")
	}
	if !reflect.DeepEqual(a.Start, b.Start) || !reflect.DeepEqual(a.Links, b.Links) {
		t.Error("routing CSR differs across identical configs")
	}
	if !reflect.DeepEqual(a.Fracs, b.Fracs) {
		t.Error("ECMP fractions differ across identical configs")
	}
	if !reflect.DeepEqual(a.InvSizes, b.InvSizes) {
		t.Error("InvSizes differ across identical configs")
	}
	if !reflect.DeepEqual(a.PairSrc, b.PairSrc) || !reflect.DeepEqual(a.PairDst, b.PairDst) {
		t.Error("pair sample differs across identical configs")
	}

	cfg2 := cfg
	cfg2.Seed = 43
	c := mustGenerate(t, cfg2)
	if reflect.DeepEqual(a.Loads, c.Loads) && reflect.DeepEqual(a.PairSrc, c.PairSrc) {
		t.Error("different seeds produced an identical instance")
	}
}

func TestGenerateTierStructure(t *testing.T) {
	cfg, err := topology.ScaleGenConfig(topology.ScaleConfig{Seed: 7, Links: 1000, Pairs: 100})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustGenerate(t, cfg)
	g := inst.Graph

	if got := g.NumNodes(); got != cfg.CoreNodes+cfg.AggNodes+cfg.EdgeNodes {
		t.Fatalf("nodes = %d, want %d", got, cfg.CoreNodes+cfg.AggNodes+cfg.EdgeNodes)
	}
	counts := map[topology.NodeTier]int{}
	for _, tier := range inst.Tier {
		counts[tier]++
	}
	if counts[topology.TierCore] != cfg.CoreNodes ||
		counts[topology.TierAgg] != cfg.AggNodes ||
		counts[topology.TierEdge] != cfg.EdgeNodes {
		t.Fatalf("tier counts = %v, want core %d agg %d edge %d",
			counts, cfg.CoreNodes, cfg.AggNodes, cfg.EdgeNodes)
	}
	if len(inst.EdgeNodes) != cfg.EdgeNodes {
		t.Fatalf("EdgeNodes = %d, want %d", len(inst.EdgeNodes), cfg.EdgeNodes)
	}

	// Edge PoPs are dual-homed onto the aggregation tier and nothing else;
	// agg PoPs are dual-homed onto the core (plus edge downlinks).
	for _, id := range inst.EdgeNodes {
		out, in := g.Out(id), g.In(id)
		if len(out) != 2 || len(in) != 2 {
			t.Fatalf("edge node %d has degree out=%d in=%d, want 2/2", id, len(out), len(in))
		}
		for _, lid := range out {
			if dst := g.Link(lid).Dst; inst.Tier[dst] != topology.TierAgg {
				t.Fatalf("edge node %d uplinks to non-agg node %d", id, dst)
			}
		}
	}
	for id, tier := range inst.Tier {
		if tier != topology.TierAgg {
			continue
		}
		coreUp := 0
		for _, lid := range g.Out(topology.NodeID(id)) {
			switch inst.Tier[g.Link(lid).Dst] {
			case topology.TierCore:
				coreUp++
			case topology.TierAgg:
				t.Fatalf("agg node %d has an agg-agg link", id)
			}
		}
		if coreUp != 2 {
			t.Fatalf("agg node %d has %d core uplinks, want 2", id, coreUp)
		}
	}

	// Strong connectivity: every node forward-reachable from node 0
	// (Validate only checks the weak version).
	seen := make([]bool, g.NumNodes())
	stack := []topology.NodeID{0}
	seen[0] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range g.Out(n) {
			if d := g.Link(lid).Dst; !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("node %d not forward-reachable from node 0", i)
		}
	}
}

func TestGenerateDegreeDistributionSkew(t *testing.T) {
	cfg, err := topology.ScaleGenConfig(topology.ScaleConfig{Seed: 7, Links: 1000, Pairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustGenerate(t, cfg)
	g := inst.Graph
	// Preferential attachment should concentrate agg homes on a few core
	// PoPs: the attachment-degree distribution must be skewed, not flat.
	homes := make(map[topology.NodeID]int)
	for id, tier := range inst.Tier {
		if tier != topology.TierAgg {
			continue
		}
		for _, lid := range g.Out(topology.NodeID(id)) {
			if dst := g.Link(lid).Dst; inst.Tier[dst] == topology.TierCore {
				homes[dst]++
			}
		}
	}
	total, minH, maxH := 0, math.MaxInt, 0
	for _, h := range homes {
		total += h
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if total != 2*cfg.AggNodes {
		t.Fatalf("agg homes = %d, want %d", total, 2*cfg.AggNodes)
	}
	if maxH <= minH {
		t.Errorf("core attachment degrees are flat (min=max=%d); preferential attachment broken", minH)
	}
}

func checkCSRShape(t *testing.T, inst *topology.ScaleInstance) {
	t.Helper()
	nPairs := inst.NumPairs()
	if nPairs != len(inst.PairSrc) || nPairs != len(inst.PairDst) || nPairs != len(inst.InvSizes) {
		t.Fatalf("pair arrays disagree: Start says %d pairs, src/dst/sizes %d/%d/%d",
			nPairs, len(inst.PairSrc), len(inst.PairDst), len(inst.InvSizes))
	}
	if inst.Start[0] != 0 || int(inst.Start[nPairs]) != len(inst.Links) {
		t.Fatalf("Start bounds: [%d ... %d], links %d", inst.Start[0], inst.Start[nPairs], len(inst.Links))
	}
	classes := map[float64]bool{}
	for _, c := range topology.SizeClasses() {
		classes[c] = true
	}
	nLinks := inst.Graph.NumLinks()
	seenPair := map[[2]topology.NodeID]bool{}
	for k := 0; k < nPairs; k++ {
		lo, hi := inst.Start[k], inst.Start[k+1]
		if hi <= lo {
			t.Fatalf("pair %d: empty or non-monotone row [%d, %d)", k, lo, hi)
		}
		rowSeen := map[int32]bool{}
		for j := lo; j < hi; j++ {
			l := inst.Links[j]
			if l < 0 || int(l) >= nLinks {
				t.Fatalf("pair %d: link %d out of range", k, l)
			}
			if rowSeen[l] {
				t.Fatalf("pair %d: duplicate link %d", k, l)
			}
			rowSeen[l] = true
			if inst.Fracs != nil {
				if f := inst.Fracs[j]; !(f > 0) || f > 1 {
					t.Fatalf("pair %d: fraction %g out of (0, 1]", k, f)
				}
			}
		}
		src, dst := inst.PairSrc[k], inst.PairDst[k]
		if src == dst {
			t.Fatalf("pair %d: identical endpoints %d", k, src)
		}
		if inst.Tier[src] != topology.TierEdge || inst.Tier[dst] != topology.TierEdge {
			t.Fatalf("pair %d: endpoints %d->%d not edge tier", k, src, dst)
		}
		key := [2]topology.NodeID{src, dst}
		if seenPair[key] {
			t.Fatalf("pair %d: duplicate OD pair %d->%d", k, src, dst)
		}
		seenPair[key] = true
		if !classes[inst.InvSizes[k]] {
			t.Fatalf("pair %d: InvSizes %g not a generator size class", k, inst.InvSizes[k])
		}
	}
	for i, u := range inst.Loads {
		if !(u > 0) {
			t.Fatalf("link %d: load %g", i, u)
		}
		lineRate := inst.Graph.Link(topology.LinkID(i)).CapacityBps / (8 * 500)
		if u > 0.6*lineRate*(1+1e-12) {
			t.Fatalf("link %d: load %g exceeds 60%% of line rate %g", i, u, lineRate)
		}
	}
}

func TestGenerateCSRShape(t *testing.T) {
	for _, ecmp := range []bool{false, true} {
		cfg, err := topology.ScaleGenConfig(topology.ScaleConfig{Seed: 11, Links: 300, Pairs: 400, ECMP: ecmp})
		if err != nil {
			t.Fatal(err)
		}
		inst := mustGenerate(t, cfg)
		if ecmp != (inst.Fracs != nil) {
			t.Fatalf("ECMP=%v but Fracs nil=%v", ecmp, inst.Fracs == nil)
		}
		checkCSRShape(t, inst)
	}
}

// smallCfg is a hand-sized instance with every ordered edge pair sampled.
func smallCfg(ecmp bool) topology.GenConfig {
	return topology.GenConfig{
		Seed:      3,
		CoreNodes: 6,
		AggNodes:  5,
		EdgeNodes: 8,
		Pairs:     8 * 7, // every ordered edge pair
		ECMP:      ecmp,
	}
}

// checkRowsEqualRouting: the generator's CSR and routing.BuildMatrix*
// over the same graph and pairs come from one router, so they agree
// link for link and fraction bit for fraction bit — no tolerance.
func checkRowsEqualRouting(t *testing.T, ecmp bool) {
	t.Helper()
	inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: 3, Links: 300, ECMP: ecmp})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]routing.ODPair, inst.NumPairs())
	for k := range pairs {
		pairs[k] = routing.ODPair{Name: strconv.Itoa(k), Src: inst.PairSrc[k], Dst: inst.PairDst[k]}
	}
	build := routing.BuildMatrix
	if ecmp {
		build = routing.BuildMatrixECMP
	}
	m, err := build(routing.ComputeTable(inst.Graph), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if (m.Fracs != nil) != ecmp || (inst.Fracs != nil) != ecmp {
		t.Fatalf("ecmp=%v: matrix Fracs nil=%v, instance Fracs nil=%v", ecmp, m.Fracs == nil, inst.Fracs == nil)
	}
	for k, row := range m.Rows {
		lo, hi := inst.Start[k], inst.Start[k+1]
		if int(hi-lo) != len(row) {
			t.Fatalf("pair %d: %d links, routing says %d", k, hi-lo, len(row))
		}
		for i, lid := range row {
			if inst.Links[int(lo)+i] != int32(lid) {
				t.Fatalf("pair %d entry %d: link %d, routing says %d", k, i, inst.Links[int(lo)+i], lid)
			}
			if !ecmp {
				continue
			}
			if got, want := inst.Fracs[int(lo)+i], m.Fracs[k][i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %d link %d: frac %x, routing says %x", k, lid, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestGenerateSinglePathMatchesRouting(t *testing.T) { checkRowsEqualRouting(t, false) }

func TestGenerateECMPMatchesRouting(t *testing.T) { checkRowsEqualRouting(t, true) }

// TestGenerateGolden pins the generated routing CSR to hashes recorded
// before routing and the generator shared one router: the generator's
// arithmetic is the copy that survived, so its output must not move.
func TestGenerateGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		ecmp bool
		want uint64
	}{
		{1, false, 0xa29b1322eafc8f93},
		{1, true, 0x740a28ff8528a98c},
		{7, false, 0xb942a606a53c6545},
		{7, true, 0x3616acc8305b7f6f},
	} {
		inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: c.seed, Links: 300, ECMP: c.ecmp})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, s := range inst.Start {
			put(uint64(s))
		}
		for _, l := range inst.Links {
			put(uint64(l))
		}
		for _, f := range inst.Fracs {
			put(math.Float64bits(f))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("seed %d ecmp %v: CSR hash = %#x, want %#x", c.seed, c.ecmp, got, c.want)
		}
	}
}

func TestGenerateECMPFindsMultipath(t *testing.T) {
	// Uniform per-tier weights exist precisely so the hierarchy yields
	// real equal-cost DAGs; a generator emitting only single paths under
	// ECMP would silently degrade the model.
	inst := mustGenerate(t, smallCfg(true))
	split := 0
	for j, f := range inst.Fracs {
		if f < 1 {
			split++
		}
		_ = j
	}
	if split == 0 {
		t.Fatal("no pair has a split path; expected equal-cost multipath in the hierarchy")
	}
}

func TestGenerateScaleDefaults(t *testing.T) {
	inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: 5, Links: 300})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPairs() == 0 {
		t.Fatal("default pair count is zero")
	}
	if inst.MaxSampledRate() <= 0 {
		t.Fatal("MaxSampledRate not positive")
	}
	if inst.NNZ() != len(inst.Links) {
		t.Fatalf("NNZ = %d, want %d", inst.NNZ(), len(inst.Links))
	}
}
