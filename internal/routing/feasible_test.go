package routing_test

import (
	"errors"
	"fmt"
	"testing"

	"netsamp/internal/plan"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// TestBuildMatrixECMPFanStaysFeasible: S fans out over nine equal-cost
// branches that rejoin at T before the destination. Nine shares of 1/9
// sum to 1.0000000000000002 on T→D; the splitter must clamp it, or the
// matrix is not a valid problem (every fraction must lie in (0, 1]).
func TestBuildMatrixECMPFanStaysFeasible(t *testing.T) {
	g := topology.New()
	s, tt, d := g.AddNode("S"), g.AddNode("T"), g.AddNode("D")
	for i := 0; i < 9; i++ {
		m := g.AddNode(fmt.Sprintf("M%d", i+1))
		g.AddLink(s, m, topology.OC48, 1)
		g.AddLink(m, tt, topology.OC48, 1)
	}
	g.AddLink(tt, d, topology.OC48, 1)
	m, err := routing.BuildMatrixECMP(routing.ComputeTable(g), []routing.ODPair{{Name: "sd", Src: s, Dst: d}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows[0]) != 19 {
		t.Fatalf("row has %d links, want 19", len(m.Rows[0]))
	}
	for i, f := range m.Fracs[0] {
		if !(f > 0 && f <= 1) {
			t.Errorf("fraction %d (link %d) is %v, want in (0, 1]", i, m.Rows[0][i], f)
		}
	}
	loads := make([]float64, g.NumLinks())
	for i := range loads {
		loads[i] = 1000
	}
	if _, err := plan.Compile(plan.Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   m.LinkSet(),
		InvMeanSizes: []float64{0.001},
		Budget:       10,
	}); err != nil {
		t.Fatalf("plan.Compile rejects the fan matrix: %v", err)
	}
}

// TestNodeOutsideTable: a NodeID that names no node of the table is a
// typed error (or false) at every entry point, never an index panic.
func TestNodeOutsideTable(t *testing.T) {
	g := topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	g.AddDuplex(a, b, topology.OC48, 1)
	tbl := routing.ComputeTable(g)
	for _, bad := range []routing.ODPair{
		{Name: "dst", Src: a, Dst: 7},
		{Name: "src", Src: 7, Dst: a},
		{Name: "neg", Src: a, Dst: -1},
	} {
		if tbl.Reachable(bad.Src, bad.Dst) {
			t.Errorf("%s: Reachable = true", bad.Name)
		}
		for _, c := range []struct {
			entry string
			call  func() error
		}{
			{"Cost", func() error { _, err := tbl.Cost(bad.Src, bad.Dst); return err }},
			{"PathBetween", func() error { _, err := tbl.PathBetween(bad.Src, bad.Dst); return err }},
			{"Fractions", func() error { _, err := tbl.Fractions(bad.Src, bad.Dst); return err }},
			{"BuildMatrix", func() error { _, err := routing.BuildMatrix(tbl, []routing.ODPair{bad}); return err }},
			{"BuildMatrixECMP", func() error { _, err := routing.BuildMatrixECMP(tbl, []routing.ODPair{bad}); return err }},
		} {
			var nre *topology.NodeRangeError
			if err := c.call(); !errors.As(err, &nre) {
				t.Errorf("%s/%s: err = %v, want a *topology.NodeRangeError", bad.Name, c.entry, err)
			} else if nre.ID != 7 && nre.ID != -1 || nre.Nodes != 2 {
				t.Errorf("%s/%s: %+v", bad.Name, c.entry, nre)
			}
		}
	}
}
