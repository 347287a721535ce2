package tpdf_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/tpdf"
)

// TestMinimalCapacitiesAreMinimal checks what MinimalBuffers promises, on
// every builtin the search completes on and on generated graphs: the
// returned vector is feasible — a run bounded by it fires what the
// unbounded reference fires — and no edge can give up one more token (down
// to its initial tokens, which can never be evicted) with the others held.
func TestMinimalCapacitiesAreMinimal(t *testing.T) {
	type subject struct {
		name   string
		graph  *tpdf.Graph
		decide map[string]tpdf.DecideFunc
	}
	var subjects []subject
	for _, name := range tpdf.BuiltinNames() {
		s, err := tpdf.BuiltinScenario(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A clock keeps ticking in a probe that deadlocks, so the search
		// ends at the simulator's event ceiling on the clocked builtins
		// (avc-me, edge) instead of completing.
		if !slices.ContainsFunc(s.Graph.Nodes, func(n *tpdf.Node) bool { return n.ClockPeriod > 0 }) {
			subjects = append(subjects, subject{name, s.Graph, s.Decide})
		}
	}
	for seed := int64(1); seed <= 32; seed++ {
		subjects = append(subjects, subject{fmt.Sprintf("gen-%d", seed), gen.Graph(seed, gen.GraphConfig{}), nil})
	}
	for _, sub := range subjects {
		for _, iters := range []int64{1, 4} {
			cfg := sim.Config{Graph: sub.graph, Decide: sub.decide, Iterations: iters, BuffersOnly: true}
			s, err := sim.NewSimulator(cfg)
			if err != nil {
				t.Fatalf("%s: %v", sub.name, err)
			}
			ref, err := s.Run()
			if err != nil {
				t.Fatalf("%s ×%d: reference run: %v", sub.name, iters, err)
			}
			want := slices.Clone(ref.Firings)
			caps, err := tpdf.MinimalBuffers(sub.graph, tpdf.WithDecisions(sub.decide), tpdf.WithIterations(iters))
			if err != nil {
				t.Fatalf("%s ×%d: MinimalBuffers: %v", sub.name, iters, err)
			}
			trial := make([]int64, len(caps))
			if err := s.SetCapacities(trial); err != nil {
				t.Fatal(err)
			}
			feasible := func() bool {
				s.Reset()
				res, err := s.Run()
				if err != nil {
					t.Fatalf("%s ×%d: bounded run at %v: %v", sub.name, iters, trial, err)
				}
				return slices.Equal(res.Firings, want)
			}
			// The documented reading of the vector: 0 is reported for exactly
			// the edges that carried no token, which are not buffers and stay
			// unbounded (the simulator's room check would block a
			// select-duplicate on them at 0); everything else is applied
			// literally.
			for ei, c := range caps {
				if (c == 0) != (ref.HighWater[ei] == 0) {
					t.Errorf("%s ×%d: edge %s reports %d, its high-water mark is %d",
						sub.name, iters, sub.graph.Edges[ei].Name, c, ref.HighWater[ei])
				}
				if trial[ei] = c; c == 0 {
					trial[ei] = -1
				}
			}
			if !feasible() {
				t.Errorf("%s ×%d: capacities %v are not feasible", sub.name, iters, caps)
				continue
			}
			for ei, c := range caps {
				if c <= sub.graph.Edges[ei].Initial || trial[ei] < 0 {
					continue
				}
				trial[ei] = c - 1
				if feasible() {
					t.Errorf("%s ×%d: edge %s still completes at %d, MinimalBuffers said %d",
						sub.name, iters, sub.graph.Edges[ei].Name, c-1, c)
				}
				trial[ei] = c
			}
		}
	}
}
