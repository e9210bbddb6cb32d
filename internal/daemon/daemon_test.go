package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netsamp/internal/faults"
	"netsamp/internal/state"
	"netsamp/internal/supervise"
)

// baseConfig is the shared run configuration of the recovery tests: a
// fault plan that exercises monitor outages and solver
// overruns, so recovered runs must reproduce fallback and probation
// decisions too, not just the happy path.
func baseConfig(dir string) Config {
	return Config{
		Dir:             dir,
		Seed:            7,
		Theta:           100000,
		Intervals:       12,
		CheckpointEvery: 4,
		SmoothAlpha:     0.5,
		SwitchGain:      0.01,
		ReviveAfter:     2,
		Faults: faults.Config{
			MonitorCrash:  0.05,
			MeanOutage:    2,
			MaxOutage:     4,
			SolverOverrun: 0.08,
		},
	}
}

// journalRecords reopens dir's journal and returns the raw record bytes.
func journalRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	j, recs, err := state.OpenJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = append([]byte{}, r...)
	}
	return out
}

var (
	refOnce    sync.Once
	refRecords [][]byte
	refErr     error
)

// reference runs the 12-interval scenario uninterrupted, once per test
// binary, and returns its decision records — the sequence every
// recovered run must reproduce bit-identically.
func reference(t *testing.T) [][]byte {
	t.Helper()
	refOnce.Do(func() {
		dir, err := os.MkdirTemp("", "daemon-ref-*")
		if err != nil {
			refErr = err
			return
		}
		defer os.RemoveAll(dir)
		loop, err := Open(baseConfig(dir))
		if err != nil {
			refErr = err
			return
		}
		defer loop.Close()
		if err := loop.Run(context.Background(), nil); err != nil {
			refErr = err
			return
		}
		j, recs, err := state.OpenJournal(filepath.Join(dir, journalName))
		if err != nil {
			refErr = err
			return
		}
		defer j.Close()
		for _, r := range recs {
			refRecords = append(refRecords, append([]byte{}, r...))
		}
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refRecords
}

func requireIdentical(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decision sequence has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			gd, _ := DecodeDecision(got[i])
			wd, _ := DecodeDecision(want[i])
			t.Fatalf("record %d diverges:\ngot  %+v\nwant %+v", i, gd, wd)
		}
	}
}

// TestKillRestoreBitIdentical is the headline recovery test: the loop is
// killed by an injected panic at an arbitrary interval, reopened from
// disk, and must complete with a decision sequence bit-identical to the
// uninterrupted run's.
func TestKillRestoreBitIdentical(t *testing.T) {
	want := reference(t)
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.CrashAt = 10 // past the second checkpoint (through interval 7)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected crash did not fire")
			}
		}()
		loop, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer loop.Close()
		loop.Run(context.Background(), nil)
	}()

	cfg.CrashAt = 0
	loop, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	if !loop.Restored() {
		t.Fatal("loop did not restore from the checkpoint")
	}
	if loop.NextInterval() != 8 {
		t.Fatalf("restored at interval %d, want 8 (last checkpoint)", loop.NextInterval())
	}
	if err := loop.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, journalRecords(t, dir), want)

	// The decoded journal is the full interval sequence, in order.
	decs, err := ReadDecisions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != cfg.Intervals {
		t.Fatalf("%d decisions, want %d", len(decs), cfg.Intervals)
	}
	for i, d := range decs {
		if d.Interval != i {
			t.Fatalf("decision %d carries interval %d", i, d.Interval)
		}
		if len(d.Plan) == 0 {
			t.Fatalf("interval %d deployed an empty plan", i)
		}
	}
}

// TestCorruptSnapshotFallsBack: when the newest checkpoint is corrupted
// on disk, recovery falls back to the previous generation and still
// reproduces the uninterrupted sequence bit-identically.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	want := reference(t)
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.CrashAt = 10

	func() {
		defer func() { recover() }()
		loop, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer loop.Close()
		loop.Run(context.Background(), nil)
	}()

	// Flip a payload byte in the newest snapshot generation: the slot
	// whose envelope carries the higher sequence number (bytes 8–15).
	snaps, err := filepath.Glob(filepath.Join(dir, "slot-*.nss"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshot slots, have %v", snaps)
	}
	var newest string
	var blob []byte
	for _, path := range snaps {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if blob == nil || binary.LittleEndian.Uint64(b[8:]) > binary.LittleEndian.Uint64(blob[8:]) {
			newest, blob = path, b
		}
	}
	blob[24] ^= 0xff // first payload byte, past the 24-byte envelope header
	if err := os.WriteFile(newest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.CrashAt = 0
	loop, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	// Fell back to the first checkpoint (through interval 3).
	if loop.NextInterval() != 4 {
		t.Fatalf("restored at interval %d, want 4 (previous generation)", loop.NextInterval())
	}
	if err := loop.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, journalRecords(t, dir), want)
}

// TestTornJournalTail: garbage appended to the journal (a torn write) is
// truncated on reopen and recovery still converges bit-identically.
func TestTornJournalTail(t *testing.T) {
	want := reference(t)
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.CrashAt = 10

	func() {
		defer func() { recover() }()
		loop, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer loop.Close()
		loop.Run(context.Background(), nil)
	}()

	jp := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.CrashAt = 0
	loop, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	if err := loop.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, journalRecords(t, dir), want)
}

// TestGracefulDrain: cancelling the context finishes the in-flight
// interval, checkpoints, and returns nil; a later reopen resumes at the
// drained interval and the combined sequence matches the reference.
func TestGracefulDrain(t *testing.T) {
	want := reference(t)
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.Intervals = 0 // run until cancelled
	ctx, cancel := context.WithCancel(context.Background())
	cfg.AfterInterval = func(interval int, _ []byte) {
		if interval == 5 { // not a checkpoint multiple: drain must checkpoint itself
			cancel()
		}
	}
	loop, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Run(ctx, nil); err != nil {
		t.Fatalf("graceful drain returned %v, want nil", err)
	}
	loop.Close()

	cfg.AfterInterval = nil
	cfg.Intervals = 12
	loop, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	if loop.NextInterval() != 6 {
		t.Fatalf("resumed at interval %d, want 6 (drain checkpoint)", loop.NextInterval())
	}
	if err := loop.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, journalRecords(t, dir), want)
}

// TestDivergenceDetected: a journal record that does not match the
// deterministic re-execution is reported, not silently replaced.
func TestDivergenceDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.Intervals = 4
	loop, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	loop.Close()

	// Forge a valid-framed record for interval 4 with contents the
	// re-execution cannot produce.
	j, _, err := state.OpenJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var e state.Encoder
	e.U16(recordVersion)
	e.U32(4)
	e.U8(0)
	e.F64(12345.0)
	e.U32(0)
	e.U32(0)
	e.U32(0)
	if err := j.Append(e.Data()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	cfg.Intervals = 8
	loop, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	err = loop.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("divergence not detected: %v", err)
	}
}

// TestConfigMismatchRejected: a checkpoint written under one
// configuration refuses to restore under another.
func TestConfigMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.Intervals = 4
	loop, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	loop.Close()

	for _, mutate := range []func(*Config){
		func(c *Config) { c.Seed = 8 },
		func(c *Config) { c.Theta = 200000 },
		func(c *Config) { c.Faults.MonitorCrash = 0.5 },
		func(c *Config) { c.SwitchGain = 0.5 },
		func(c *Config) { c.ReviveAfter = 7 },
	} {
		bad := baseConfig(dir)
		mutate(&bad)
		if _, err := Open(bad); err == nil {
			t.Fatalf("mismatched configuration accepted: %+v", bad)
		}
	}
}

// TestServeSupervisedRestart: the supervised entry point survives the
// injected crash — the second attempt restores and completes, and the
// journal matches the uninterrupted reference.
func TestServeSupervisedRestart(t *testing.T) {
	want := reference(t)
	dir := t.TempDir()
	cfg := baseConfig(dir)
	cfg.CrashAt = 10

	var logs []string
	sup := &supervise.Supervisor{
		MaxFailures: 3,
		Sleep:       func(context.Context, time.Duration) {},
		Logf:        func(f string, a ...any) { logs = append(logs, f) },
	}
	attempt := 0
	err := sup.Run(context.Background(), func(ctx context.Context, progress func()) error {
		attempt++
		c := cfg
		if attempt > 1 {
			c.CrashAt = 0 // the crash is transient; later attempts run clean
		}
		loop, err := Open(c)
		if err != nil {
			return err
		}
		defer loop.Close()
		return loop.Run(ctx, progress)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempt != 2 {
		t.Fatalf("%d attempts, want 2", attempt)
	}
	requireIdentical(t, journalRecords(t, dir), want)
}

// TestSupervisorGivesUp: a task that fails without ever making progress
// is abandoned after MaxFailures consecutive failures, with exponential
// backoff between restarts.
func TestSupervisorGivesUp(t *testing.T) {
	var delays []time.Duration
	sup := &supervise.Supervisor{
		MaxFailures: 4,
		Backoff:     100 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Sleep:       func(_ context.Context, d time.Duration) { delays = append(delays, d) },
	}
	calls := 0
	err := sup.Run(context.Background(), func(context.Context, func()) error {
		calls++
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("supervisor did not give up")
	}
	if calls != 4 {
		t.Fatalf("%d attempts, want 4", calls)
	}
	wantDelays := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond}
	if len(delays) != len(wantDelays) {
		t.Fatalf("backoff schedule %v, want %v", delays, wantDelays)
	}
	for i := range wantDelays {
		if delays[i] != wantDelays[i] {
			t.Fatalf("backoff schedule %v, want %v", delays, wantDelays)
		}
	}
}

// TestSupervisorProgressResetsFailures: progress between failures resets
// the consecutive-failure counter, so a long-running loop that crashes
// occasionally — but checkpoints in between — is restarted indefinitely.
func TestSupervisorProgressResetsFailures(t *testing.T) {
	sup := &supervise.Supervisor{
		MaxFailures: 2,
		Sleep:       func(context.Context, time.Duration) {},
	}
	calls := 0
	err := sup.Run(context.Background(), func(_ context.Context, progress func()) error {
		calls++
		if calls <= 3 {
			progress() // durable forward progress, then a crash
			return errors.New("crash after checkpoint")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("supervisor gave up on a progressing task: %v", err)
	}
	if calls != 4 {
		t.Fatalf("%d attempts, want 4", calls)
	}
}

// TestSupervisorCapturesCrashStack: a panicking task is converted into a
// CrashError carrying the crashed goroutine's stack.
func TestSupervisorCapturesCrashStack(t *testing.T) {
	sup := &supervise.Supervisor{
		MaxFailures: 1,
		Sleep:       func(context.Context, time.Duration) {},
	}
	err := sup.Run(context.Background(), func(context.Context, func()) error {
		crashHere()
		return nil
	})
	var ce *supervise.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if ce.Value != "kersplat" {
		t.Fatalf("crash value %v", ce.Value)
	}
	if !strings.Contains(string(ce.Stack), "crashHere") {
		t.Fatalf("stack does not name the crash site:\n%s", ce.Stack)
	}
	if !strings.Contains(err.Error(), "crashHere") {
		t.Fatal("error text does not carry the stack")
	}
}

func crashHere() { panic("kersplat") }

// TestSupervisorHonorsCancellation: a cancelled context stops the
// restart loop with ctx.Err().
func TestSupervisorHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &supervise.Supervisor{
		MaxFailures: 100,
		Sleep:       func(context.Context, time.Duration) { cancel() },
	}
	err := sup.Run(ctx, func(context.Context, func()) error {
		return errors.New("boom")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestOpenValidation covers the front-door input checks.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Theta: 1}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("zero theta accepted")
	}
}
