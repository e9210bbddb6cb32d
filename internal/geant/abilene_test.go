package geant

import (
	"math"
	"testing"
)

func abilene(t *testing.T, seed uint64) *Scenario {
	t.Helper()
	s, err := BuildAbilene(seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAbileneShape(t *testing.T) {
	s := abilene(t, 1)
	// 11 Abilene PoPs + the customer node.
	if got := s.Graph.NumNodes(); got != 12 {
		t.Fatalf("nodes = %d, want 12", got)
	}
	// 14 duplex trunks + the duplex access link = 30 unidirectional.
	if got := s.Graph.NumLinks(); got != 30 {
		t.Fatalf("links = %d, want 30", got)
	}
	if len(s.Pairs) != 10 || len(s.Rates) != 10 {
		t.Fatalf("pairs/rates = %d/%d", len(s.Pairs), len(s.Rates))
	}
	if err := s.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(s.Rates); k++ {
		if s.Rates[k] >= s.Rates[k-1] {
			t.Fatal("rates not descending")
		}
	}
	// Access link excluded from candidates; every pair crosses it.
	for _, lid := range s.MonitorLinks {
		if s.Graph.Link(lid).Access {
			t.Fatal("access link among candidates")
		}
	}
	for k := range s.Pairs {
		if !s.Matrix.Traverses(k, s.AccessLink) {
			t.Fatalf("pair %s misses the access link", s.Pairs[k].Name)
		}
	}
}

func TestAbileneDeterministic(t *testing.T) {
	a, b := abilene(t, 3), abilene(t, 3)
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatal("nondeterministic loads")
		}
	}
}

func TestAbileneUtilityParams(t *testing.T) {
	s := abilene(t, 1)
	params := s.UtilityParams(300)
	if len(params) != 10 {
		t.Fatalf("params = %d", len(params))
	}
	// Smallest pair: 15 pkt/s → 4500 pkts/interval.
	if math.Abs(params[9]-1.0/4500) > 1e-12 {
		t.Fatalf("smallest pair c = %v", params[9])
	}
}
