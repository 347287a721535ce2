package tpdf

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/symb"
)

// SweepPoint is the token-accurate simulation outcome at one parameter
// valuation of a Sweep.
type SweepPoint struct {
	// Params is the valuation this point was simulated at (the grid entry,
	// merged over any WithParams baseline).
	Params map[string]int64
	// Time is the virtual completion time.
	Time int64
	// TotalBuffer sums the per-edge high-water marks — the buffer metric
	// of the paper's Fig. 8.
	TotalBuffer int64
	// HighWater and Final are the per-edge buffer high-water marks and
	// end-of-run token counts; Firings the per-node firing counts.
	HighWater []int64
	Final     []int64
	Firings   []int64
}

// MaxGridPoints caps the cartesian product Grid will materialize. Each
// point costs a map allocation before any simulation starts, so a product
// beyond this is an input error, not a sweep — Grid reports it instead of
// letting the runtime die on a multi-terabyte allocation.
const MaxGridPoints = 1 << 24

// Grid builds the cartesian product of parameter axes as Sweep input.
// Axis names are iterated in sorted order with the last axis varying
// fastest, so the point order is deterministic. An empty axis yields a nil
// grid; a product exceeding MaxGridPoints (or overflowing int outright)
// is reported as an error instead of silently mis-sizing the result.
func Grid(axes map[string][]int64) ([]map[string]int64, error) {
	names := make([]string, 0, len(axes))
	for n := range axes {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 1
	for _, n := range names {
		l := len(axes[n])
		if l == 0 {
			return nil, nil
		}
		if total > MaxGridPoints/l {
			return nil, fmt.Errorf("tpdf: grid size exceeds %d points (axis %q of %d entries on top of %d points)", MaxGridPoints, n, l, total)
		}
		total *= l
	}
	if len(names) == 0 {
		return nil, nil
	}
	grid := make([]map[string]int64, 0, total)
	idx := make([]int, len(names))
	for {
		point := make(map[string]int64, len(names))
		for k, n := range names {
			point[n] = axes[n][idx[k]]
		}
		grid = append(grid, point)
		k := len(names) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(axes[names[k]]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return grid, nil
		}
	}
}

// Sweep simulates the graph at every parameter valuation of the grid and
// returns one point per valuation, in grid order. WithParallelism shards
// the grid across a bounded worker pool once points × WithIterations is
// large enough to pay for a second worker (pool.GridWorkers); results are
// written by grid index, so the output is identical whatever the worker
// count. Each
// valuation is merged over the WithParams baseline (grid entries win).
// WithContext cancels a running sweep: remaining grid points are abandoned
// and the context's error is returned. Other options as for Simulate.
//
// The graph is compiled once per worker (core compile-once form): every
// point the worker shards rebinds the compiled program in place and
// re-runs a pooled simulator, so a warm sweep point costs no graph
// construction, no symbolic evaluation through maps and no simulator
// allocation.
//
// This is the programmatic face of the paper's evaluation loops: the
// Fig. 8 buffer sweep is Sweep over a β×N grid of the OFDM graph, reading
// TotalBuffer off each point.
func Sweep(g *Graph, grid []map[string]int64, opts ...Option) ([]SweepPoint, error) {
	cfg := buildConfig(opts)
	out := make([]SweepPoint, len(grid))
	if len(grid) == 0 {
		return out, nil
	}
	// A worker's setup compiles the graph once; GridWorkers keeps a second
	// worker out until the grid is enough work to amortize that.
	nw := pool.GridWorkers(len(grid), cfg.iterations, cfg.parallel)
	progs := make([]*core.Program, nw)
	sims := make([]*sim.Simulator, nw)
	env := make([]symb.Env, nw)
	err := pool.RunWorkers(len(grid), nw, func(w, i int) error {
		if cfg.ctx != nil {
			// Abort mid-grid: remaining points fail fast on a cancelled
			// context instead of simulating to completion.
			if err := cfg.ctx.Err(); err != nil {
				return err
			}
		}
		if progs[w] == nil {
			p, err := core.Compile(g)
			if err != nil {
				return err
			}
			progs[w] = p
			env[w] = make(symb.Env, len(cfg.params)+len(grid[i]))
		}
		params := make(map[string]int64, len(cfg.params)+len(grid[i]))
		clear(env[w])
		for k, v := range cfg.params {
			env[w][k] = v
			params[k] = v
		}
		for k, v := range grid[i] {
			env[w][k] = v
			params[k] = v
		}
		if err := progs[w].Rebind(env[w]); err != nil {
			return err
		}
		if sims[w] == nil {
			s, err := sim.NewSimulatorFromProgram(progs[w], sim.Config{
				Context:     cfg.ctx,
				Iterations:  cfg.iterations,
				Processors:  cfg.processors,
				Decide:      cfg.decide,
				BuffersOnly: true,
			})
			if err != nil {
				return err
			}
			sims[w] = s
		} else if err := sims[w].BindProgram(progs[w]); err != nil {
			return err
		}
		res, err := sims[w].Run()
		if err != nil {
			return err
		}
		// The result aliases the pooled simulator's state; copy it out in
		// one slab per point.
		ne, nn := len(res.HighWater), len(res.Firings)
		buf := make([]int64, 2*ne+nn)
		hw, fin, fir := buf[:ne:ne], buf[ne:2*ne:2*ne], buf[2*ne:]
		copy(hw, res.HighWater)
		copy(fin, res.Final)
		copy(fir, res.Firings)
		out[i] = SweepPoint{
			Params:      params,
			Time:        res.Time,
			TotalBuffer: res.TotalBuffer(),
			HighWater:   hw,
			Final:       fin,
			Firings:     fir,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
