package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pool"
)

// speculationDepth is how many bisection levels are evaluated at once: the
// 2^d - 1 capacities the next d sequential probes could visit, all checked
// concurrently. Capped so the speculative waste stays below the win.
func speculationDepth(parallel int) int {
	d := 1
	for d < 4 && (1<<(d+1))-1 <= parallel {
		d++
	}
	return d
}

// speculativePivots appends every capacity the sequential bisection of
// [lo, hi) could probe within the next depth steps, mirroring the walk in
// MinimalCapacitiesParallel exactly.
func speculativePivots(lo, hi int64, depth int, out []int64) []int64 {
	if lo >= hi || depth == 0 {
		return out
	}
	mid := lo + (hi-lo)/2
	out = append(out, mid)
	out = speculativePivots(lo, mid, depth-1, out)
	return speculativePivots(mid+1, hi, depth-1, out)
}

// MinimalCapacitiesParallel searches, per edge, for the smallest channel
// capacity that still lets the configuration complete, holding other edges
// at their current bound (seeded by the unbounded run's high-water marks,
// which are always sufficient). The result is a per-edge buffer allocation
// in tokens; its sum is the minimum-buffer metric the Fig. 8 experiment
// compares.
//
// Per-edge binary search against a token-accurate run is exact for the
// monotone property "capacity c suffices given the other capacities";
// jointly shrinking several edges below their individual minima could in
// principle trade space between channels, so the result is a (tight) upper
// bound on the joint optimum, which matches how the paper sizes one buffer
// per channel.
//
// The feasibility probes fan out over up to parallel workers, each owning
// a pooled Simulator that is Reset between probes. Parallelism is
// speculative — the capacities the sequential bisection *could* probe next
// are evaluated concurrently and the walk then follows the sequential
// decision path — so the result is identical whatever the worker count,
// even if feasibility were non-monotone.
func MinimalCapacitiesParallel(cfg Config, parallel int) ([]int64, error) {
	caps, _, err := MinimalCapacitiesRef(cfg, parallel)
	return caps, err
}

// MinimalCapacitiesRef is MinimalCapacitiesParallel returning also a copy
// of the unbounded reference run the search seeds from — callers that
// report observed high-water marks next to the minimized capacities (the
// a8 experiment) get them without paying another instantiate-and-run.
//
// The graph is compiled once: the reference run and every probe simulator
// share one Program's concrete graph (read-only during the search), so
// adding workers costs per-run state, not repeated instantiations; and
// each worker owns a reusable capacity-trial buffer, so a probe allocates
// nothing once its simulator is warm.
func MinimalCapacitiesRef(cfg Config, parallel int) ([]int64, *Result, error) {
	prog, err := core.Bind(cfg.Graph, cfg.Env)
	if err != nil {
		return nil, nil, err
	}
	refSim, err := NewSimulatorFromProgram(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	refRun, err := refSim.Run()
	if err != nil {
		return nil, nil, err
	}
	// The run aliases the pooled simulator; copy what outlives the search.
	ref := &Result{
		Time:      refRun.Time,
		Firings:   append([]int64(nil), refRun.Firings...),
		HighWater: append([]int64(nil), refRun.HighWater...),
		Final:     append([]int64(nil), refRun.Final...),
		Quiescent: refRun.Quiescent,
		Busy:      append([]int64(nil), refRun.Busy...),
		Events:    append([]FireEvent(nil), refRun.Events...),
	}
	refFirings := ref.Firings
	caps := append([]int64(nil), ref.HighWater...)

	// Pooled probe simulators: trace callbacks and busy-time accounting are
	// irrelevant during feasibility probes, only firing counts matter.
	probeCfg := cfg
	probeCfg.Record = false
	probeCfg.OnFire = nil
	probeCfg.BuffersOnly = true
	if parallel < 1 {
		parallel = 1
	}
	sims := make([]*Simulator, parallel)
	trials := make([][]int64, parallel)
	for w := range sims {
		if sims[w], err = NewSimulatorFromProgram(prog, probeCfg); err != nil {
			return nil, nil, err
		}
		trials[w] = make([]int64, len(caps))
		if err := sims[w].SetCapacities(trials[w]); err != nil {
			return nil, nil, err
		}
	}

	// feasible(w, ei, c) runs the bounded configuration — current caps with
	// edge ei tried at c — on worker w's simulator and compares per-node
	// firing counts with the unbounded reference.
	feasible := func(w int, ei int, c int64) (bool, error) {
		s := sims[w]
		trial := trials[w]
		copy(trial, caps)
		trial[ei] = c
		s.Reset()
		res, err := s.Run()
		if err != nil {
			return false, err
		}
		for i := range res.Firings {
			if res.Firings[i] != refFirings[i] {
				return false, nil
			}
		}
		return true, nil
	}

	depth := speculationDepth(parallel)
	var pivots []int64
	verdicts := make([]bool, 0, 1<<4)
	for ei := range caps {
		lo, hi := int64(0), caps[ei] // hi is known-feasible
		// Initial tokens can never be evicted; they are a hard floor.
		if init := cfg.Graph.Edges[ei].Initial; lo < init {
			lo = init
		}
		for lo < hi {
			pivots = speculativePivots(lo, hi, depth, pivots[:0])
			verdicts = verdicts[:0]
			for range pivots {
				verdicts = append(verdicts, false)
			}
			err := pool.RunWorkers(len(pivots), parallel, func(w, k int) error {
				ok, err := feasible(w, ei, pivots[k])
				verdicts[k] = ok
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			lookup := func(c int64) bool {
				for k, p := range pivots {
					if p == c {
						return verdicts[k]
					}
				}
				panic("sim: speculative pivot set missed a probe")
			}
			for step := 0; step < depth && lo < hi; step++ {
				mid := lo + (hi-lo)/2
				if lookup(mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
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
