package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageListsEveryCommandOnce(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	lines := strings.Split(buf.String(), "\n")
	for _, c := range commands {
		n := 0
		for _, line := range lines {
			if f := strings.Fields(line); len(f) > 0 && f[0] == c.name && strings.HasPrefix(line, "  ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("command %q listed %d times in usage, want 1", c.name, n)
		}
		if c.help == "" || c.run == nil {
			t.Errorf("command %q has no help text or no run function", c.name)
		}
	}
}

// An unknown command is a usage error (exit 2) that still goes through
// run's deferred profile writers. `bench` is unknown on purpose: bench/
// is the benchmark.
func TestUnknownCommandReturns2AndFlushesProfile(t *testing.T) {
	for _, name := range []string{"bench", "no-such-command"} {
		prof := filepath.Join(t.TempDir(), "cpu.out")
		if code := run([]string{"-cpuprofile", prof, name}); code != 2 {
			t.Errorf("run(%q) = %d, want 2", name, code)
		}
		// StopCPUProfile is what writes the profile; an unflushed file
		// is empty.
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Errorf("run(%q): CPU profile not flushed (stat: %v, %v)", name, fi, err)
		}
	}
}

func TestScaleFailsOnShardDrift(t *testing.T) {
	opt := defaultScaleOptions()
	opt.links = []int{300}
	opt.pairsPerLink = 3
	results, err := runScaleSuite(opt, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reportScale(&buf, results); err != nil {
		t.Fatalf("healthy suite reported: %v\n%s", err, buf.String())
	}
	results[0].ShardIdentical = false
	buf.Reset()
	if err := reportScale(&buf, results); err == nil {
		t.Fatalf("ShardIdentical == false exited clean:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "DRIFT") {
		t.Fatalf("table does not show the drift:\n%s", buf.String())
	}
}
