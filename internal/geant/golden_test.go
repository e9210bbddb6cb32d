package geant

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"netsamp/internal/topology"
)

// routeHash is an FNV-64a digest of everything the router decides for a
// scenario: the studied pairs' routing rows, the shortest path of every
// ordered node pair, and the link loads those paths induce (bit for bit).
func routeHash(t *testing.T, s *Scenario) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, row := range s.Matrix.Rows {
		put(uint64(len(row)))
		for _, lid := range row {
			put(uint64(lid))
		}
	}
	n := s.Graph.NumNodes()
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			p, err := s.Table.PathBetween(topology.NodeID(a), topology.NodeID(c))
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(p.Cost))
			for _, lid := range p.Links {
				put(uint64(lid))
			}
		}
	}
	for _, u := range s.Loads {
		put(math.Float64bits(u))
	}
	return h.Sum64()
}

// TestRoutingGolden pins single-path routing on both evaluation
// backbones to the hashes recorded before the two routers were merged:
// the surviving SPF must pick the same path for every node pair.
func TestRoutingGolden(t *testing.T) {
	ab, err := BuildAbilene(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *Scenario
		want uint64
	}{
		{"geant", MustBuild(1), 0x66609c47c7ee64a7},
		{"abilene", ab, 0xcc0d522be3de67b0},
	} {
		if got := routeHash(t, c.s); got != c.want {
			t.Errorf("%s: route hash = %#x, want %#x", c.name, got, c.want)
		}
	}
}
