package faults

import (
	"bytes"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"netsamp/internal/topology"
)

func mustPlan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlanValidation(t *testing.T) {
	bad := []Config{
		{MonitorCrash: -0.1},
		{MonitorCrash: 1.5},
		{DatagramLoss: math.NaN()},
		{DatagramDup: -1},
		{DatagramReorder: 1.01},
		{SolverOverrun: -0.5},
		{MaxOutage: -1},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	p, err := NewPlan(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Config(); c.MaxOutage != 8 || c.MeanOutage != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestMonitorDownDeterministic: the fault schedule is a pure function of
// (seed, interval, link) — queries in any order, from any plan instance
// with the same seed, agree; a different seed gives a different history.
func TestMonitorDownDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, MonitorCrash: 0.2, MeanOutage: 2}
	a, b := mustPlan(t, cfg), mustPlan(t, cfg)
	cfg.Seed = 12
	c := mustPlan(t, cfg)
	// Query a forward and b backward: evaluation order must not matter.
	forward := make(map[[2]int]bool)
	for tt := 0; tt < 64; tt++ {
		for lid := 0; lid < 16; lid++ {
			forward[[2]int{tt, lid}] = a.MonitorDown(tt, topology.LinkID(lid))
		}
	}
	for tt := 63; tt >= 0; tt-- {
		for lid := 15; lid >= 0; lid-- {
			if b.MonitorDown(tt, topology.LinkID(lid)) != forward[[2]int{tt, lid}] {
				t.Fatalf("same seed disagreed at t=%d link=%d", tt, lid)
			}
		}
	}
	identical := true
	for tt := 0; tt < 64 && identical; tt++ {
		for lid := 0; lid < 16; lid++ {
			if c.MonitorDown(tt, topology.LinkID(lid)) != forward[[2]int{tt, lid}] {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Fatal("different seeds gave identical fault histories")
	}
}

// TestMonitorDownConcurrent: Plan must be queryable from many
// goroutines (run under -race).
func TestMonitorDownConcurrent(t *testing.T) {
	p := mustPlan(t, Config{Seed: 3, MonitorCrash: 0.3, MeanOutage: 3})
	var wg sync.WaitGroup
	results := make([][]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]bool, 0, 32*8)
			for tt := 0; tt < 32; tt++ {
				for lid := topology.LinkID(0); lid < 8; lid++ {
					out = append(out, p.MonitorDown(tt, lid))
				}
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d diverged at %d", g, i)
			}
		}
	}
}

func TestMonitorDownRateAndOutages(t *testing.T) {
	p := mustPlan(t, Config{Seed: 7, MonitorCrash: 0.1, MeanOutage: 3, MaxOutage: 6})
	const links, intervals = 40, 400
	down := 0
	for tt := 0; tt < intervals; tt++ {
		for lid := topology.LinkID(0); lid < links; lid++ {
			if p.MonitorDown(tt, lid) {
				down++
			}
		}
	}
	frac := float64(down) / float64(links*intervals)
	// Crash rate 0.1 with ~3-interval outages: expect roughly 20–40%
	// downtime; mostly a sanity bound that faults actually fire.
	if frac < 0.1 || frac > 0.6 {
		t.Fatalf("downtime fraction %v implausible", frac)
	}
	// Outages respect the MaxOutage cap: no link is down for more than
	// MaxOutage+MaxOutage-1 consecutive intervals unless re-crashed —
	// just verify some link recovers at all.
	recovered := false
	for lid := topology.LinkID(0); lid < links && !recovered; lid++ {
		wasDown := false
		for tt := 0; tt < intervals; tt++ {
			d := p.MonitorDown(tt, lid)
			if wasDown && !d {
				recovered = true
				break
			}
			wasDown = d
		}
	}
	if !recovered {
		t.Fatal("no monitor ever recovered")
	}
}

func TestSolverOverrun(t *testing.T) {
	p := mustPlan(t, Config{Seed: 5, SolverOverrun: 0.5})
	overruns := 0
	for tt := 0; tt < 1000; tt++ {
		if p.SolverOverrun(tt) {
			overruns++
		}
	}
	if overruns < 400 || overruns > 600 {
		t.Fatalf("overrun count %d far from 500", overruns)
	}
	none := mustPlan(t, Config{Seed: 5})
	for tt := 0; tt < 50; tt++ {
		if none.SolverOverrun(tt) || none.MonitorDown(tt, 1) {
			t.Fatal("zero-probability plan injected a fault")
		}
	}
}

func TestChannelLossDupReorder(t *testing.T) {
	p := mustPlan(t, Config{Seed: 9, DatagramLoss: 0.2, DatagramDup: 0.1, DatagramReorder: 0.1})
	run := func() ([]string, *Channel) {
		ch := p.Channel(1)
		var got []string
		deliver := func(b []byte) { got = append(got, string(b)) }
		for i := 0; i < 500; i++ {
			ch.Transmit([]byte{byte(i), byte(i >> 8)}, deliver)
		}
		ch.Flush(deliver)
		return got, ch
	}
	got1, ch := run()
	got2, _ := run()
	if len(got1) != len(got2) {
		t.Fatalf("channel not deterministic: %d vs %d deliveries", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery %d differs", i)
		}
	}
	if ch.Lost() == 0 || ch.Duplicated() == 0 || ch.Reordered() == 0 {
		t.Fatalf("faults did not fire: lost=%d dup=%d reorder=%d", ch.Lost(), ch.Duplicated(), ch.Reordered())
	}
	if ch.Delivered() != uint64(len(got1)) {
		t.Fatalf("Delivered=%d, deliveries=%d", ch.Delivered(), len(got1))
	}
	want := 500 - ch.Lost() + ch.Duplicated()
	if ch.Delivered() != want {
		t.Fatalf("conservation violated: delivered %d, want %d", ch.Delivered(), want)
	}
}

func TestChannelReorderSwapsAdjacent(t *testing.T) {
	// Force a reorder on the first datagram only: with reorder
	// probability 1 every datagram wants to be held, but a datagram is
	// only held when no other is pending, so the stream becomes a
	// pairwise swap: (1,0), (3,2), ...
	p := mustPlan(t, Config{Seed: 1, DatagramReorder: 1})
	ch := p.Channel(0)
	var got []byte
	deliver := func(b []byte) { got = append(got, b[0]) }
	for i := byte(0); i < 6; i++ {
		ch.Transmit([]byte{i}, deliver)
	}
	ch.Flush(deliver)
	want := []byte{1, 0, 3, 2, 5, 4}
	if !bytes.Equal(got, want) {
		t.Fatalf("reorder pattern = %v, want %v", got, want)
	}
}

func TestChannelFlushReleasesHeld(t *testing.T) {
	p := mustPlan(t, Config{Seed: 2, DatagramReorder: 1})
	ch := p.Channel(0)
	var got []byte
	ch.Transmit([]byte{42}, func(b []byte) { got = append(got, b[0]) })
	if len(got) != 0 {
		t.Fatalf("held datagram delivered early: %v", got)
	}
	ch.Flush(func(b []byte) { got = append(got, b[0]) })
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("flush = %v", got)
	}
}

func TestFlakyConn(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	fc := NewFlakyConn(client)
	defer fc.Close()
	fc.FailNext(2)
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _ := server.Read(buf)
		done <- buf[:n]
	}()
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("disarmed conn failed: %v", err)
	}
	if got := <-done; string(got) != "ok" {
		t.Fatalf("delivered %q", got)
	}
	if fc.Injected() != 2 {
		t.Fatalf("Injected = %d", fc.Injected())
	}
}
