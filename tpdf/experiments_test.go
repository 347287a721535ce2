package tpdf_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/tpdf"
)

// TestExperimentRegistry pins the single name → generator table: the
// facade lists experiments.Steps in paper order, and running one
// experiment by name renders exactly its section of the full run — same
// sweeps, same rows — for quick and full fidelity alike. The full run is
// taken with Measure off so t6 carries no wall-clock readings; t6 alone is
// therefore compared through experiments.Run under the same options.
func TestExperimentRegistry(t *testing.T) {
	var want []string
	for _, s := range experiments.Steps(experiments.Options{Quick: true, Parallel: 4}) {
		want = append(want, s.Name)
	}
	names := tpdf.ExperimentNames()
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ExperimentNames() = %v, want experiments.Steps order %v", names, want)
	}
	for _, quick := range []bool{true, false} {
		opts := experiments.Options{Quick: quick, Parallel: 1}
		rest, err := experiments.All(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			var out string
			if name == "t6" {
				out, err = experiments.Run(name, opts)
			} else {
				out, err = tpdf.RunExperiment(name, quick)
			}
			if err != nil {
				t.Fatalf("%s (quick=%v): %v", name, quick, err)
			}
			section := out + "\n"
			if !strings.HasPrefix(rest, section) {
				t.Fatalf("%s (quick=%v): single run is not its section of the full run:\n--- single\n%s--- full run continues\n%.400s",
					name, quick, section, rest)
			}
			rest = rest[len(section):]
		}
		if rest != "" {
			t.Errorf("quick=%v: full run has output beyond the named experiments:\n%s", quick, rest)
		}
	}
	if _, err := tpdf.RunExperiment("nope", true); err == nil {
		t.Error("unknown experiment name accepted")
	}
}
