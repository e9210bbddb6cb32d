package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReplayGolden pins the accuracy replay's report. The golden is
// run(θ=100000, seed 1, scale 1) minus its timing line, recorded at the
// last commit whose replay ran on netflow's own goroutine-and-channel
// collector: the one-shard ingest.Collector must reproduce every
// estimate bit for bit. The report is a pure function of the arguments
// only while the loopback delivers every datagram, so a run that lost or
// dropped records is skipped, not failed.
func TestReplayGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 100000, 1, 1); err != nil {
		t.Fatal(err)
	}
	var report []string
	var timing string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if strings.HasPrefix(line, "replayed interval in ") {
			timing = line
			continue
		}
		report = append(report, line)
	}
	_, books, ok := strings.Cut(timing, "collector: ")
	if !ok {
		t.Fatalf("no collector accounting in the timing line %q", timing)
	}
	var got, exported, lost, overload, malformed, shutdown, poisoned uint64
	if _, err := fmt.Sscanf(books, "%d of %d exported records, %d lost, dropped %d overload + %d malformed + %d shutdown + %d poisoned",
		&got, &exported, &lost, &overload, &malformed, &shutdown, &poisoned); err != nil {
		t.Fatalf("timing line %q: %v", timing, err)
	}
	if got != exported || lost+overload+malformed+shutdown+poisoned != 0 {
		t.Skipf("loopback was not loss-free, estimates are renormalized: %s", books)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "replay_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(report, ""); got != string(want) {
		t.Fatalf("replay report changed.\n--- got\n%s\n--- want\n%s", got, want)
	}
}

func TestReplayRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, 1.5} {
		if err := run(&bytes.Buffer{}, 100000, 1, scale); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
	}
}

// TestLoadSoak runs one second of the overload soak at 3× capacity with
// wire faults on: the books must balance and the JSON summary the CI
// job archives must parse and agree with itself.
func TestLoadSoak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.json")
	err := runLoad(loadConfig{
		Shards: 2, Ring: 64, Policy: "drop-newest", Capacity: 20000, Multiple: 3,
		Duration: time.Second, Exporters: 3, Seed: 1,
		LossP: 0.02, DupP: 0.01, ReorderP: 0.02,
		JSONPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum loadSummary
	if err := json.Unmarshal(blob, &sum); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, blob)
	}
	if !sum.InvariantOK {
		t.Fatalf("invariant_ok false: %s", blob)
	}
	if sum.Received == 0 || sum.Received != sum.Delivered+sum.DroppedOverload+sum.DroppedShutdown {
		t.Fatalf("received %d != delivered %d + overload %d + shutdown %d",
			sum.Received, sum.Delivered, sum.DroppedOverload, sum.DroppedShutdown)
	}
	if sum.SkippedRecords == 0 || sum.LostUpstream == 0 {
		t.Fatalf("injected wire loss invisible: skipped %d, lost upstream %d", sum.SkippedRecords, sum.LostUpstream)
	}
	if err := runLoad(loadConfig{Policy: "no-such-policy"}); err == nil {
		t.Fatal("unknown overload policy accepted")
	}
}
