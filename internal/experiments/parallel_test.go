package experiments_test

import (
	"testing"

	"repro/internal/experiments"
)

// TestAllExperimentsParallelByteIdentical is the harness-level differential
// test: the full quick experiment suite, fanned out across experiments and
// sharded within each sweep, must render byte-for-byte what the sequential
// harness renders. Measure is off so no wall-clock readings enter the
// output. The CI race job runs this under -race, which also exercises the
// worker pools for data races.
func TestAllExperimentsParallelByteIdentical(t *testing.T) {
	seq, err := experiments.All(experiments.Options{Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq == "" {
		t.Fatal("sequential harness produced no output")
	}
	for _, workers := range []int{3, 8} {
		par, err := experiments.All(experiments.Options{Quick: true, Parallel: workers})
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if par != seq {
			t.Fatalf("parallel=%d: output diverged from sequential run", workers)
		}
	}
}

// TestParallelExperimentWrappers pins every sharded experiment to its
// sequential rendering individually, so a divergence is attributed to the
// experiment that introduced it.
func TestParallelExperimentWrappers(t *testing.T) {
	cases := []struct {
		name string
		run  func(parallel int) (string, error)
	}{
		{"a1", experiments.ScheduleAblation},
		{"a2", experiments.PlatformSweep},
		{"a3", experiments.FMRadioComparison},
		{"a5", experiments.AVCQualityThreshold},
		{"a6", experiments.ThroughputValidation},
		{"a7", experiments.PipelinedScheduling},
		{"a8", experiments.CapacityMinimization},
		{"f8", func(p int) (string, error) { return experiments.F8([]int64{2, 5}, p) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(4)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("parallel rendering diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s", want, got)
			}
		})
	}
}
