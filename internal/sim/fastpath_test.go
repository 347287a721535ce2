package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/symb"
)

// ofdmCfg is the sweep-shaped configuration the fast-path tests exercise:
// control tokens, a select-duplicate, a transaction, multi-rate edges.
func ofdmCfg(t *testing.T) sim.Config {
	t.Helper()
	params := apps.OFDMParams{Beta: 6, M: 4, N: 32, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, params.M)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Graph: g, Env: symb.Env(params.Env()), Decide: decide}
}

// TestSimulatorResetReproducesRun verifies that a pooled simulator cycled
// through Reset produces exactly the metrics of a fresh engine, run after
// run.
func TestSimulatorResetReproducesRun(t *testing.T) {
	cfg := ofdmCfg(t)
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if round > 0 {
			s.Reset()
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Time != want.Time || !reflect.DeepEqual(got.Firings, want.Firings) ||
			!reflect.DeepEqual(got.HighWater, want.HighWater) ||
			!reflect.DeepEqual(got.Final, want.Final) {
			t.Fatalf("round %d: pooled run diverged from fresh run", round)
		}
	}
}

// TestSimulatorSteadyStateAllocs locks in the allocation-free fast path:
// after the first run has grown every buffer to its high-water mark, a
// Reset+Run cycle must not allocate at all.
func TestSimulatorSteadyStateAllocs(t *testing.T) {
	cfg := ofdmCfg(t)
	cfg.BuffersOnly = true
	s, err := sim.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+Run allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestBuffersOnlyMatchesFullRun checks the high-water-mark-only mode
// reports the same buffer metrics and firing counts as a full run.
func TestBuffersOnlyMatchesFullRun(t *testing.T) {
	cfg := ofdmCfg(t)
	full, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BuffersOnly = true
	lean, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.HighWater, lean.HighWater) ||
		!reflect.DeepEqual(full.Final, lean.Final) ||
		!reflect.DeepEqual(full.Firings, lean.Firings) ||
		full.Time != lean.Time {
		t.Fatal("BuffersOnly run diverged from full run")
	}
}

// TestSetIterationsRebounds verifies a pooled simulator re-bounded to more
// iterations matches a fresh engine at that bound.
func TestSetIterationsRebounds(t *testing.T) {
	cfg := ofdmCfg(t)
	s, err := sim.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.SetIterations(3)
	s.Reset()
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iterations = 3
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || !reflect.DeepEqual(got.Firings, want.Firings) {
		t.Fatal("SetIterations(3) diverged from a fresh 3-iteration run")
	}
}
