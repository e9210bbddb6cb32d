package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the commands' current output")

// goldenCases are the study commands whose stdout is held byte-equal to
// testdata/golden/<name>.txt: every study at its default flags, the -csv
// forms, and the two variants that change the table's shape.
var goldenCases = []struct {
	name string
	args []string
}{
	{"figure1", []string{"figure1"}},
	{"table1", []string{"table1"}},
	{"figure2", []string{"figure2"}},
	{"convergence", []string{"convergence"}},
	{"accesslink", []string{"accesslink"}},
	{"maxmin", []string{"maxmin"}},
	{"detect", []string{"detect"}},
	{"tm", []string{"tm"}},
	{"dynamic", []string{"dynamic"}},
	{"degrade", []string{"degrade"}},
	{"regret", []string{"regret"}},
	{"coordinate", []string{"coordinate"}},
	{"saturation", []string{"saturation"}},
	{"table1-csv", []string{"table1", "-csv"}},
	{"figure2-csv", []string{"figure2", "-csv"}},
	{"degrade-csv", []string{"degrade", "-csv"}},
	{"regret-csv", []string{"regret", "-csv"}},
	{"saturation-csv", []string{"saturation", "-csv"}},
	{"coordinate-csv", []string{"coordinate", "-csv"}},
	{"table1-abilene", []string{"table1", "-abilene"}},
	{"figure2-ext", []string{"figure2", "-ext"}},
}

// runCaptured runs the CLI in-process with stdout and stderr redirected
// to files and returns both with the exit code.
func runCaptured(t *testing.T, args []string) (stdout, stderr []byte, code int) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	outF.Close()
	errF.Close()
	if stdout, err = os.ReadFile(outF.Name()); err != nil {
		t.Fatal(err)
	}
	if stderr, err = os.ReadFile(errF.Name()); err != nil {
		t.Fatal(err)
	}
	return stdout, stderr, code
}

// checkGolden compares got with testdata/golden/<name>.txt, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Fatalf("%s line %d differs (regenerate with -update and say why):\n got: %q\nwant: %q", path, i+1, at(g), at(w))
}

// TestCLIGolden holds every study command's output byte-equal to the
// recorded goldens. The floats are recorded on amd64; other
// architectures may fuse multiply-adds and round differently.
func TestCLIGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("CLI goldens are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			out, errOut, code := runCaptured(t, c.args)
			if code != 0 {
				t.Fatalf("netsamp %s: exit %d\n%s", strings.Join(c.args, " "), code, errOut)
			}
			checkGolden(t, c.name, out)
		})
	}
}

// TestCLIExitCodes: an unknown command is a usage error (2); an invalid
// study parameter is a run error (1) that prints the study's usage and
// the reason, recorded in testdata/golden/exit-<name>.txt.
func TestCLIExitCodes(t *testing.T) {
	if _, _, code := runCaptured(t, []string{"no-such-command"}); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"workers", []string{"figure2", "-workers", "-1"}},
		{"overrun", []string{"degrade", "-overrun", "2"}},
		{"explore", []string{"regret", "-explore", "0.9"}},
		{"widen", []string{"regret", "-widen", "0.5"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, errOut, code := runCaptured(t, c.args)
			if code != 1 {
				t.Fatalf("netsamp %s: exit %d, want 1", strings.Join(c.args, " "), code)
			}
			if len(out) != 0 {
				t.Errorf("netsamp %s wrote to stdout:\n%s", strings.Join(c.args, " "), out)
			}
			if !bytes.Contains(errOut, []byte("Usage of "+c.args[0])) {
				t.Errorf("netsamp %s: no usage on stderr:\n%s", strings.Join(c.args, " "), errOut)
			}
			checkGolden(t, "exit-"+c.name, errOut)
		})
	}
}
