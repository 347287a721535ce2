package sim

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// MinimalCapacities searches, per edge, for the smallest channel capacity
// that still lets the configuration complete, holding other edges at their
// current bound (seeded by the unbounded run's high-water marks, which are
// always sufficient). The result is a per-edge buffer allocation in tokens;
// its sum is the minimum-buffer metric the Fig. 8 experiment compares.
//
// A reported 0 means the run put no token on that edge (the branch a mode
// rejects): it needs no buffer, and it is not a capacity — SetCapacities
// with a literal 0 there blocks a select-duplicate producer, whose room
// check covers every output it might select. Leave such an edge unbounded
// (-1), as the search's own probes do.
//
// Per-edge binary search against a token-accurate run is exact for the
// monotone property "capacity c suffices given the other capacities";
// jointly shrinking several edges below their individual minima could in
// principle trade space between channels, so the result is a (tight) upper
// bound on the joint optimum, which matches how the paper sizes one buffer
// per channel.
func MinimalCapacities(cfg Config) ([]int64, error) {
	caps, _, err := MinimalCapacitiesRef(cfg)
	return caps, err
}

// MinimalCapacitiesRef is MinimalCapacities returning also the unbounded
// reference run the search seeds from (the a8 experiment reports
// its high-water marks next to the minimized capacities). The graph is
// compiled once; every probe reuses one simulator (Reset between probes)
// and one capacity-trial buffer, so a warm probe allocates nothing.
func MinimalCapacitiesRef(cfg Config) ([]int64, *Result, error) {
	prog, err := core.Bind(cfg.Graph, cfg.Env)
	if err != nil {
		return nil, nil, err
	}
	refSim, err := NewSimulatorFromProgram(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	// refSim is never run again, so ref stays valid after the search.
	ref, err := refSim.Run()
	if err != nil {
		return nil, nil, err
	}
	caps := slices.Clone(ref.HighWater)

	// Trace callbacks and busy-time accounting are irrelevant during
	// feasibility probes, only firing counts matter.
	probeCfg := cfg
	probeCfg.Record = false
	probeCfg.OnFire = nil
	probeCfg.BuffersOnly = true
	probe, err := NewSimulatorFromProgram(prog, probeCfg)
	if err != nil {
		return nil, nil, err
	}
	trial := make([]int64, len(caps))
	if err := probe.SetCapacities(trial); err != nil {
		return nil, nil, err
	}

	// feasible(ei, c) runs the bounded configuration — current caps with
	// edge ei tried at c — and compares per-node firing counts with the
	// unbounded reference. An edge the reference never put a token on
	// reports 0 and is probed unbounded (see MinimalCapacities): at 0 it
	// would refuse every probe and the search would return the high-water
	// marks.
	feasible := func(ei int, c int64) (bool, error) {
		for i, hw := range ref.HighWater {
			trial[i] = caps[i]
			if hw == 0 {
				trial[i] = -1
			}
		}
		trial[ei] = c
		probe.Reset()
		res, err := probe.Run()
		if err != nil {
			return false, err
		}
		return slices.Equal(res.Firings, ref.Firings), nil
	}

	for ei := range caps {
		// Initial tokens can never be evicted; they are a hard floor. hi is
		// known-feasible.
		lo, hi := max(0, cfg.Graph.Edges[ei].Initial), caps[ei]
		for lo < hi {
			mid := lo + (hi-lo)/2
			ok, err := feasible(ei, mid)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		caps[ei] = hi
	}
	return caps, ref, nil
}

// edgeHasRoom reports whether producing n tokens on edge ei respects its
// capacity (debt-consumed tokens never occupy buffer space).
func (s *Simulator) edgeHasRoom(ei int, n int64) bool {
	if s.caps == nil || ei >= len(s.caps) || s.caps[ei] < 0 {
		return true
	}
	es := &s.edges[ei]
	arriving := n - es.debt
	if arriving < 0 {
		arriving = 0
	}
	return es.tokens+arriving <= s.caps[ei]
}

// outputsHaveRoom checks all channels node i would produce on at firing n.
// Output selection cannot be known before the firing commits for
// select-duplicate kernels, so the check is conservative: every potentially
// produced-on channel needs room.
func (s *Simulator) outputsHaveRoom(i int, firing int64) bool {
	for _, ei := range s.nodes[i].outEdges {
		es := &s.edges[ei]
		if !s.edgeHasRoom(ei, es.prod.rate(firing)) {
			return false
		}
	}
	return true
}

// IterationPeriod estimates the steady-state iteration period of the
// configuration: the asymptotic time one full graph iteration adds once the
// pipeline is warm. It runs the simulator for warm and for warm+span
// iterations and divides the completion-time delta by span.
func IterationPeriod(cfg Config, warm, span int64) (float64, error) {
	if warm < 1 || span < 1 {
		return 0, fmt.Errorf("sim: warm and span must be >= 1")
	}
	c1 := cfg
	c1.Iterations = warm
	s, err := NewSimulator(c1)
	if err != nil {
		return 0, err
	}
	r1, err := s.Run()
	if err != nil {
		return 0, err
	}
	t1 := r1.Time
	s.SetIterations(warm + span)
	s.Reset()
	r2, err := s.Run()
	if err != nil {
		return 0, err
	}
	return float64(r2.Time-t1) / float64(span), nil
}
