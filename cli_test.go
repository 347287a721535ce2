package repro

// Acceptance tests for the command-line tools, run through the toolchain
// against the shipped graph files.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestCLIAnalyzeShippedGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	out := runTool(t, "tpdf-analyze", "graphs/fig2.tpdf")
	for _, frag := range []string{"consistency: OK", "2*p", "rate safe", "bounded"} {
		if !strings.Contains(out, frag) {
			t.Errorf("analyze output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLIAnalyzeDOTExport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	dot := filepath.Join(t.TempDir(), "fig2.dot")
	runTool(t, "tpdf-analyze", "-dot", dot, "-builtin", "fig2")
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Errorf("DOT file malformed:\n%s", data)
	}
}

func TestCLISimOFDM(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	out := runTool(t, "tpdf-sim", "-builtin", "ofdm", "-param", "beta=10")
	for _, frag := range []string{"total buffer: 61453", "QPSK  0", "quiescent=true"} {
		if !strings.Contains(out, frag) {
			t.Errorf("sim output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLISchedWithCodegen(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	gen := filepath.Join(t.TempDir(), "sched.go")
	out := runTool(t, "tpdf-sched", "-builtin", "fig2", "-param", "p=2", "-pes", "4", "-gen", gen)
	for _, frag := range []string{"makespan:", "critical path:", "MCR"} {
		if !strings.Contains(out, frag) {
			t.Errorf("sched output missing %q:\n%s", frag, out)
		}
	}
	src, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func RunIteration") {
		t.Error("generated schedule code missing RunIteration")
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	out := runTool(t, "tpdf-bench", "-exp", "f1")
	if !strings.Contains(out, "(a3)^2 (a1)^3 (a2)^2") {
		t.Errorf("bench f1 output wrong:\n%s", out)
	}
}

// TestCLIBenchRetiredModes pins the removal of the cross-machine
// regression harness: its flags are usage errors now, not silently ignored.
func TestCLIBenchRetiredModes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	for _, name := range []string{"compare", "json", "serve", "gen"} {
		out, err := exec.Command("go", "run", "./cmd/tpdf-bench", "-"+name, "x").CombinedOutput()
		if err == nil {
			t.Errorf("tpdf-bench -%s should fail", name)
		}
		if !strings.Contains(string(out), "flag provided but not defined: -"+name) ||
			!strings.Contains(string(out), "Usage of") {
			t.Errorf("tpdf-bench -%s: want a usage error, got:\n%s", name, out)
		}
	}
}

func TestCLIAnalyzeRejectsUnknown(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short")
	}
	cmd := exec.Command("go", "run", "./cmd/tpdf-analyze", "-builtin", "nope")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown builtin should fail:\n%s", out)
	}
}
