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
