package supervise

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sleeps returns a Sleep hook that records every requested delay and
// never waits, so the backoff schedule is observable without a timer.
func sleeps(log *[]time.Duration) func(context.Context, time.Duration) {
	return func(_ context.Context, d time.Duration) { *log = append(*log, d) }
}

// failing returns a task that fails n times with errors "fail 1".."fail n"
// and then succeeds; it counts its invocations in calls.
func failing(n int, calls *int) Task {
	return func(context.Context, func()) error {
		*calls++
		if *calls <= n {
			return fmt.Errorf("fail %d", *calls)
		}
		return nil
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	var got []time.Duration
	calls := 0
	s := &Supervisor{MaxFailures: 7, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Sleep: sleeps(&got)}
	if err := s.Run(context.Background(), failing(6, &calls)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{10, 20, 40, 50, 50, 50}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sleeps %v, want %v", got, want)
	}
	if calls != 7 {
		t.Fatalf("%d attempts, want 7", calls)
	}
}

func TestProgressResetsFailuresAndDelay(t *testing.T) {
	var got []time.Duration
	calls := 0
	// Two failures, then one that makes progress before failing, then
	// one more failure and success. Without the reset the third attempt
	// would reach MaxFailures = 3 and end the run.
	task := func(_ context.Context, progress func()) error {
		calls++
		switch calls {
		case 3:
			progress()
			return errors.New("after progress")
		case 5:
			return nil
		}
		return errors.New("plain")
	}
	s := &Supervisor{MaxFailures: 3, Backoff: time.Second, MaxBackoff: time.Hour, Sleep: sleeps(&got)}
	if err := s.Run(context.Background(), task); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, time.Second, 2 * time.Second}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sleeps %v, want %v", got, want)
	}
}

func TestGivesUpAfterMaxFailures(t *testing.T) {
	var got []time.Duration
	calls := 0
	s := &Supervisor{MaxFailures: 3, Backoff: time.Millisecond, Sleep: sleeps(&got)}
	err := s.Run(context.Background(), failing(100, &calls))
	if err == nil {
		t.Fatal("Run returned nil after persistent failures")
	}
	if calls != 3 || len(got) != 2 {
		t.Fatalf("%d attempts and %d sleeps, want 3 and 2", calls, len(got))
	}
	if !strings.Contains(err.Error(), "3 consecutive failures") {
		t.Fatalf("error %q does not count the failures", err)
	}
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != "fail 3" {
		t.Fatalf("wrapped error %v, want the last failure \"fail 3\"", inner)
	}
}

func TestPanicBecomesCrashError(t *testing.T) {
	var got []time.Duration
	s := &Supervisor{MaxFailures: 1, Sleep: sleeps(&got)}
	err := s.Run(context.Background(), func(context.Context, func()) error { panic("boom") })
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CrashError", err)
	}
	if ce.Value != "boom" {
		t.Fatalf("crash value %v, want boom", ce.Value)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("crash carries no stack")
	}
	if !strings.Contains(ce.Error(), "boom") {
		t.Fatalf("crash message %q omits the panic value", ce.Error())
	}
}

func TestCancelledContextReturnsCtxErr(t *testing.T) {
	t.Run("during the task", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var got []time.Duration
		s := &Supervisor{Sleep: sleeps(&got)}
		err := s.Run(ctx, func(context.Context, func()) error {
			cancel()
			return errors.New("interrupted")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if len(got) != 0 {
			t.Fatalf("slept %v after cancellation", got)
		}
	})
	t.Run("during the sleep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		s := &Supervisor{Sleep: func(context.Context, time.Duration) { cancel() }}
		err := s.Run(ctx, failing(100, &calls))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if calls != 1 {
			t.Fatalf("%d attempts, want 1 (no restart after a cancelled sleep)", calls)
		}
	})
	t.Run("default sleep", func(t *testing.T) {
		// The built-in sleep must return on cancellation, not wait out
		// the backoff: an hour-long delay would time the test out.
		ctx, cancel := context.WithCancel(context.Background())
		failed := make(chan struct{})
		go func() {
			<-failed
			cancel()
		}()
		s := &Supervisor{Backoff: time.Hour}
		calls := 0
		err := s.Run(ctx, func(context.Context, func()) error {
			calls++
			if calls == 1 {
				close(failed)
			}
			return errors.New("fail")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if calls != 1 {
			t.Fatalf("%d attempts, want 1", calls)
		}
	})
}

func TestZeroValueDefaults(t *testing.T) {
	var got []time.Duration
	calls := 0
	s := &Supervisor{Sleep: sleeps(&got)}
	if err := s.Run(context.Background(), failing(100, &calls)); err == nil {
		t.Fatal("Run returned nil after persistent failures")
	}
	if calls != 5 {
		t.Fatalf("%d attempts, want the default 5", calls)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sleeps %v, want %v", got, want)
	}
	if d := s.maxBackoff(); d != 30*time.Second {
		t.Fatalf("default MaxBackoff %v, want 30s", d)
	}
	// The cap applies at its default too: 100ms doubles past 30s on
	// the tenth restart.
	got = got[:0]
	calls = 0
	s.MaxFailures = 12
	_ = s.Run(context.Background(), failing(100, &calls))
	if len(got) != 11 {
		t.Fatalf("%d sleeps, want 11", len(got))
	}
	if last := got[len(got)-1]; last != 30*time.Second {
		t.Fatalf("delay after %d restarts is %v, want the 30s default cap", len(got), last)
	}
}
