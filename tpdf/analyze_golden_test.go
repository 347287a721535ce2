package tpdf_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/tpdf"
	"repro/tpdf/fuzz"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/analyze.golden from the current analysis output")

// goldenSources are hand-written graphs that reach the renderings the
// builtins and the generated corpus (all consistent, safe and bounded by
// construction) do not: rational-function ratios in an inconsistency
// message, an unsafe control actor, fractional propagation ratios that
// normalize away, multi-parameter sums and a rational rate.
var goldenSources = []string{
	`graph inconsistent {
  param p = 2 range 1..8;
  kernel A exec 1;
  kernel B exec 1;
  edge e1: A [p] -> [1] B;
  edge e2: A [1] -> [1] B;
}`,
	`graph unsafe {
  kernel S exec 1;
  transaction K exec 1;
  control C exec 1;
  kernel Z exec 0;
  edge e1: S [2] -> [1] K prio 1;
  edge e2: S [1] -> [0,1] C;
  edge e3: C [1] -> [1] K control;
  edge e4: K [1] -> [1] Z;
}`,
	`graph fractions {
  param p = 3 range 1..9;
  param q = 2 range 1..9;
  kernel A exec 1;
  kernel B exec 1;
  kernel C exec 1;
  kernel D exec 1;
  edge e1: A [2*p] -> [3*q] B;
  edge e2: B [q, 2*q] -> [p] C;
  edge e3: C [p + q] -> [p*q + q^2] D;
}`,
	`graph sums {
  param N = 4 range 1..16;
  param L = 1 range 1..4;
  param beta = 2 range 1..8;
  kernel SRC exec 1;
  kernel CP exec 1;
  kernel FFT exec 1;
  kernel SNK exec 0;
  edge e1: SRC [beta*(N+L)] -> [N+L] CP;
  edge e2: CP [N] -> [N] FFT;
  edge e3: FFT [N] -> [beta*N] SNK;
}`,
}

// TestAnalyzeGolden pins what the static analysis answers — the rendered
// report and the symbolic buffer bound — for every builtin, the
// hand-written goldenSources and 256 generated graphs. It was recorded
// before the symbolic kernel was rewritten and must keep passing
// byte-identical; regenerate with `go test ./tpdf -run TestAnalyzeGolden
// -update` only for a deliberate change of the analysis output.
func TestAnalyzeGolden(t *testing.T) {
	var b strings.Builder
	record := func(label string, g *tpdf.Graph) {
		rep := tpdf.Analyze(g)
		fmt.Fprintf(&b, "== %s\n%sbound: %s\n", label, rep.String(), rep.BufferBoundExpr)
	}
	for _, name := range tpdf.BuiltinNames() {
		g, err := tpdf.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		record("builtin "+name, g)
	}
	for i, src := range goldenSources {
		g, err := tpdf.Parse(src)
		if err != nil {
			t.Fatalf("goldenSources[%d]: %v", i, err)
		}
		record("source "+g.Name, g)
	}
	for seed := int64(1); seed <= 256; seed++ {
		record(fmt.Sprintf("generated %d", seed), fuzz.Graph(seed, fuzz.GraphConfig{}))
	}

	path := filepath.Join("testdata", "analyze.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("analysis output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("analysis output differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
}
