package geant

import (
	"math"
	"strings"
	"testing"

	"netsamp/internal/topology"
)

func TestBuildShape(t *testing.T) {
	s := MustBuild(1)
	// 23 GEANT PoPs + JANET.
	if got := s.Graph.NumNodes(); got != 24 {
		t.Fatalf("nodes = %d, want 24", got)
	}
	// 36 duplex circuits + the duplex access link = 74 unidirectional.
	if got := s.Graph.NumLinks(); got != 74 {
		t.Fatalf("links = %d, want 74", got)
	}
	if len(s.Pairs) != 20 || len(s.Rates) != 20 || len(s.SizeDists) != 20 {
		t.Fatalf("pairs/rates/dists = %d/%d/%d", len(s.Pairs), len(s.Rates), len(s.SizeDists))
	}
	// The paper's restricted baseline monitors exactly six UK links.
	if len(s.UKLinks) != 6 {
		t.Fatalf("UK links = %d, want 6", len(s.UKLinks))
	}
	if err := s.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJANETRatesMatchPaper(t *testing.T) {
	s := MustBuild(1)
	sum := 0.0
	for k, r := range s.Rates {
		if k > 0 && r >= s.Rates[k-1] {
			t.Fatalf("rates not strictly descending at %d: %v", k, s.Rates)
		}
		sum += r
	}
	// Paper footnote: Σ = 57,933 pkt/s.
	if math.Abs(sum-TotalJANETRate) > 1e-9 {
		t.Fatalf("total JANET rate = %v, want %v", sum, TotalJANETRate)
	}
	// Largest (NL) > 30,000 pkt/s; smallest (LU) = 20 pkt/s (paper text).
	if s.Rates[0] < 30000 {
		t.Fatalf("JANET-NL rate = %v, want > 30000", s.Rates[0])
	}
	if s.Rates[len(s.Rates)-1] != 20 {
		t.Fatalf("JANET-LU rate = %v, want 20", s.Rates[len(s.Rates)-1])
	}
}

func TestAccessLinkExcludedFromMonitors(t *testing.T) {
	s := MustBuild(1)
	if !s.Graph.Link(s.AccessLink).Access {
		t.Fatal("access link not flagged")
	}
	for _, lid := range s.MonitorLinks {
		if s.Graph.Link(lid).Access {
			t.Fatalf("access link %s in candidate set", s.Graph.LinkName(lid))
		}
	}
	// Every pair must traverse the access link (ingress through UK) —
	// which is why excluding it matters.
	for k := range s.Pairs {
		if !s.Matrix.Traverses(k, s.AccessLink) {
			t.Fatalf("pair %s does not cross the access link", s.Pairs[k].Name)
		}
	}
}

func TestExpectedMonitoredPaths(t *testing.T) {
	// The structural property of Section V-C: the small OD pairs must
	// exit through the expected distal links.
	s := MustBuild(1)
	wantLast := map[string]string{
		"JANET-LU": "FR->LU",
		"JANET-SK": "CZ->SK",
		"JANET-IL": "IT->IL",
		"JANET-PL": "SE->PL",
		"JANET-BE": "FR->BE",
		"JANET-NL": "UK->NL",
	}
	for k, pr := range s.Pairs {
		want, ok := wantLast[pr.Name]
		if !ok {
			continue
		}
		row := s.Matrix.Rows[k]
		last := s.Graph.LinkName(row[len(row)-1])
		if last != want {
			t.Fatalf("%s egress link = %s, want %s", pr.Name, last, want)
		}
	}
}

func TestLoadStructure(t *testing.T) {
	// UK core links must be loaded far above the stub links carrying the
	// small OD pairs; this asymmetry is what the optimizer exploits.
	s := MustBuild(1)
	load := func(name string) float64 {
		parts := strings.Split(name, "->")
		src, dst := s.Graph.MustNode(parts[0]), s.Graph.MustNode(parts[1])
		lid, ok := s.Graph.FindLink(src, dst)
		if !ok {
			t.Fatalf("missing link %s", name)
		}
		return s.Loads[lid]
	}
	for _, heavy := range []string{"UK->NL", "UK->FR", "UK->DE"} {
		for _, light := range []string{"FR->LU", "CZ->SK", "SE->PL", "IT->IL"} {
			if load(heavy) < 4*load(light) {
				t.Fatalf("load(%s)=%v not ≫ load(%s)=%v", heavy, load(heavy), light, load(light))
			}
		}
	}
	// Every candidate link carries traffic (positive load).
	for _, lid := range s.MonitorLinks {
		if s.Loads[lid] <= 0 {
			t.Fatalf("candidate link %s has zero load", s.Graph.LinkName(lid))
		}
	}
}

func TestUtilityParams(t *testing.T) {
	s := MustBuild(1)
	params := s.UtilityParams(300)
	sizes := s.PairSizes(300)
	for k, c := range params {
		if math.Abs(c-1/float64(sizes[k])) > 1e-18 {
			t.Fatalf("pair %d: c = %v, want 1/%d", k, c, sizes[k])
		}
		if !(c > 0 && c <= 1) {
			t.Fatalf("pair %d: c = %v outside (0, 1]", k, c)
		}
	}
	// JANET-LU (20 pkt/s) → 6000 packets per interval → c ≈ 1/6000: the
	// paper's "about 1%" effective-rate regime.
	if math.Abs(params[len(params)-1]-1.0/6000) > 1e-12 {
		t.Fatalf("JANET-LU c = %v, want 1/6000", params[len(params)-1])
	}
}

func TestFlowMeanInverseSizesInPaperRange(t *testing.T) {
	s := MustBuild(1)
	for k, d := range s.SizeDists {
		c := d.MeanInverse()
		// Figure 1 plots E[1/S] between ≈1/1500 and 0.002; the bounded
		// Pareto discretization lands close to that band.
		if c < 0.0004 || c > 0.004 {
			t.Fatalf("pair %d: E[1/S] = %v out of expected band", k, c)
		}
	}
}

func TestPairSizes(t *testing.T) {
	s := MustBuild(1)
	sizes := s.PairSizes(300)
	if sizes[len(sizes)-1] != 6000 { // 20 pkt/s × 300 s
		t.Fatalf("JANET-LU size = %d, want 6000", sizes[len(sizes)-1])
	}
	if sizes[0] != int64(s.Rates[0]*300+0.5) {
		t.Fatalf("JANET-NL size = %d", sizes[0])
	}
}

func TestBuildDeterministicPerSeed(t *testing.T) {
	a, b := MustBuild(7), MustBuild(7)
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatalf("loads differ at %d for equal seeds", i)
		}
	}
	c := MustBuild(8)
	same := true
	for i := range a.Loads {
		if a.Loads[i] != c.Loads[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical loads (jitter inert)")
	}
}

func TestDefaultIntervalConsistency(t *testing.T) {
	// The scenario's sizes at the paper's 5-minute interval must be
	// positive for every pair (estimability).
	s := MustBuild(1)
	for k, size := range s.PairSizes(300) {
		if size <= 0 {
			t.Fatalf("pair %d has non-positive interval size", k)
		}
	}
}

func TestMonitorLinksSortedUnique(t *testing.T) {
	s := MustBuild(1)
	seen := map[topology.LinkID]bool{}
	for i, lid := range s.MonitorLinks {
		if seen[lid] {
			t.Fatalf("duplicate link %v", lid)
		}
		seen[lid] = true
		if i > 0 && lid <= s.MonitorLinks[i-1] {
			t.Fatal("monitor links not sorted")
		}
	}
}
