package faults

import (
	"bytes"
	"testing"

	"netsamp/internal/topology"
)

// TestConfigRoundTrip: marshal → unmarshal is exact, and a plan rebuilt
// from the decoded config draws the identical fault history — the
// property deterministic recovery rests on.
func TestConfigRoundTrip(t *testing.T) {
	cfg := Config{
		Seed:            12345,
		MonitorCrash:    0.03,
		MeanOutage:      2.5,
		MaxOutage:       6,
		DatagramLoss:    0.02,
		DatagramDup:     0.01,
		DatagramReorder: 0.005,
		SolverOverrun:   0.04,
	}
	blob, err := cfg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := cfg.MarshalBinary()
	if !bytes.Equal(blob, blob2) {
		t.Fatal("config encoding is not deterministic")
	}
	var back Config
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Fatalf("round trip: %+v != %+v", back, cfg)
	}
	p1, p2 := mustPlan(t, cfg), mustPlan(t, back)
	for interval := 0; interval < 50; interval++ {
		for link := topology.LinkID(0); link < 10; link++ {
			if p1.MonitorDown(interval, link) != p2.MonitorDown(interval, link) {
				t.Fatalf("fault history diverged at t=%d link=%d", interval, link)
			}
		}
		if p1.SolverOverrun(interval) != p2.SolverOverrun(interval) {
			t.Fatalf("solver overrun diverged at t=%d", interval)
		}
	}
}

func TestConfigUnmarshalRejectsGarbage(t *testing.T) {
	blob, _ := Config{Seed: 1}.MarshalBinary()
	var c Config
	if err := c.UnmarshalBinary(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated config accepted")
	}
	if err := c.UnmarshalBinary(append(blob, 0)); err == nil {
		t.Fatal("oversized config accepted")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 0x7f
	if err := c.UnmarshalBinary(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}
