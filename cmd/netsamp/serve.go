package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/daemon"
	"netsamp/internal/faults"
	"netsamp/internal/ingest"
	"netsamp/internal/supervise"
)

// cmdServe runs the monitoring control loop as a supervised, crash-safe
// daemon: per-interval re-optimization under an injected fault plan,
// write-ahead journaling of every decision, periodic checkpointing, and
// graceful drain on SIGINT/SIGTERM. A restarted daemon resumes from the
// newest valid checkpoint and reproduces the decision sequence of an
// uninterrupted run bit-exactly.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "persistence directory for checkpoints and the decision journal (required)")
	theta := fs.Float64("theta", 100000, "budget θ in packets per 5-minute interval")
	seed := fs.Uint64("seed", 7, "master seed of traffic synthesis and fault draws")
	intervals := fs.Int("intervals", 0, "intervals to run before exiting (0 = run until a signal)")
	checkpoint := fs.Int("checkpoint", 8, "checkpoint cadence in intervals")
	workers := workersFlag(fs)
	alpha := fs.Float64("alpha", 0.5, "EWMA load-smoothing weight in (0, 1]")
	gain := fs.Float64("switchgain", 0.01, "hysteresis: minimum relative gain to change the monitor set")
	revive := fs.Int("revive", 2, "healthy intervals a recovered monitor owes before readmission")
	solveTimeout := fs.Duration("solve-timeout", 0, "per-interval solver wall-clock bound (0 = none)")
	robust := fs.String("robust", "off", "robust solving posture: off, pessimistic or optimistic")
	explore := fs.Float64("explore", 0.1, "budget fraction reserved for probing uncertain links (robust mode)")
	widen := fs.Float64("widen", 1.3, "per-unobserved-interval confidence widening factor (robust mode)")
	crash := fs.Float64("crash", 0, "per-interval monitor crash probability")
	overrun := fs.Float64("overrun", 0, "per-interval solver overrun probability")
	drift := fs.Float64("drift", 0, "per-interval load random-walk volatility (load drift fault)")
	driftStep := fs.Float64("drift-step", 0, "per-interval per-link step-change probability (load drift fault)")
	maxFailures := fs.Int("max-failures", 5, "consecutive crashes (without a checkpoint in between) before giving up")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial restart backoff (doubles per failure)")
	maxBackoff := fs.Duration("max-backoff", 30*time.Second, "restart backoff ceiling")
	ingestAddr := fs.String("ingest", "", "UDP listen address for live NetFlow ingest (empty = synthetic worlds only); enabling it disables bit-identical replay cross-checks")
	ingestShards := fs.Int("ingest-shards", 4, "collector shards, each with its own ring and worker")
	ingestRing := fs.Int("ingest-ring", 1024, "datagram ring capacity per shard (rounded up to a power of two)")
	ingestPolicy := fs.String("ingest-policy", "drop-newest", "overload policy: drop-newest or block")
	ingestCapacity := fs.Int("ingest-capacity", 0, "per-shard record budget per second (0 = unthrottled)")
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("serve needs -dir <persistence directory>")
	}
	mode, err := core.RobustModeByName(*robust)
	if err != nil {
		return err
	}
	var robustOpts control.RobustOptions
	if mode != core.RobustOff {
		robustOpts = control.RobustOptions{
			Mode:            mode,
			ExplorationFrac: *explore,
			WidenFactor:     *widen,
		}
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	cfg := daemon.Config{
		Dir:             *dir,
		Seed:            *seed,
		Theta:           *theta,
		Intervals:       *intervals,
		CheckpointEvery: *checkpoint,
		Workers:         *workers,
		SmoothAlpha:     *alpha,
		SwitchGain:      *gain,
		ReviveAfter:     *revive,
		SolveTimeout:    *solveTimeout,
		Robust:          robustOpts,
		Faults: faults.Config{
			MonitorCrash:  *crash,
			SolverOverrun: *overrun,
			DriftVol:      *drift,
			DriftStep:     *driftStep,
		},
		Logf: logf,
	}
	// A live ingest tier feeds its record-loss fraction into every step:
	// overload and wire loss widen the controller's confidence instead
	// of being trusted at face value. The probe's readings are not
	// replayable, so the daemon drops its journal cross-check.
	if *ingestAddr != "" {
		policy, err := ingest.ParsePolicy(*ingestPolicy)
		if err != nil {
			return err
		}
		col, err := ingest.New(ingest.Config{
			Shards:           *ingestShards,
			RingSize:         *ingestRing,
			Policy:           policy,
			CapacityPerShard: *ingestCapacity,
			Logf:             logf,
		})
		if err != nil {
			return err
		}
		if err := col.Listen(*ingestAddr); err != nil {
			return err
		}
		defer func() {
			col.Close()
			v := col.Snapshot()
			logf("ingest: %d datagrams, %d records (%d delivered, %d dropped, %d lost upstream), loss fraction %.4f",
				v.Datagrams, v.Records, v.Delivered, v.Dropped, v.LostRecords, v.LossFraction)
		}()
		logf("ingest: listening on %s (%d shards, ring %d, policy %s)", col.Addr(), col.Shards(), *ingestRing, policy)
		cfg.LossProbe = col.LossFraction
	}
	sup := &supervise.Supervisor{
		MaxFailures: *maxFailures,
		Backoff:     *backoff,
		MaxBackoff:  *maxBackoff,
		Logf:        logf,
	}

	// SIGINT/SIGTERM cancel the context; the loop finishes the in-flight
	// interval, writes a final checkpoint, and Serve returns nil — so a
	// signalled shutdown exits 0 with a resumable state on disk.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return daemon.Serve(ctx, cfg, sup)
}
