package tpdf_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/symb"
	"repro/tpdf"
)

func TestGridOrderAndSize(t *testing.T) {
	grid, err := tpdf.Grid(map[string][]int64{
		"beta": {1, 2, 3},
		"N":    {16, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 6 {
		t.Fatalf("grid has %d points, want 6", len(grid))
	}
	// Sorted axis names (N before beta), last axis fastest.
	want := []map[string]int64{
		{"N": 16, "beta": 1}, {"N": 16, "beta": 2}, {"N": 16, "beta": 3},
		{"N": 32, "beta": 1}, {"N": 32, "beta": 2}, {"N": 32, "beta": 3},
	}
	if !reflect.DeepEqual(grid, want) {
		t.Fatalf("grid order %v, want %v", grid, want)
	}
	if pts, err := tpdf.Grid(map[string][]int64{"beta": {}}); err != nil || pts != nil {
		t.Fatalf("empty axis must yield nil grid, got %v (err %v)", pts, err)
	}
}

// TestGridOverflowRejected feeds axes whose cartesian product is
// oversized — both int-overflowing and merely unallocatable — and demands
// an explicit error instead of a mis-sized slice or a fatal OOM.
func TestGridOverflowRejected(t *testing.T) {
	axis := make([]int64, 1<<16)
	overflow := map[string][]int64{}
	for _, n := range []string{"a", "b", "c", "d", "e"} { // (2^16)^5 = 2^80
		overflow[n] = axis
	}
	if _, err := tpdf.Grid(overflow); err == nil {
		t.Fatal("int-overflowing grid must be rejected")
	}
	// 2^40 points fits in an int but would demand terabytes before the
	// first simulation; MaxGridPoints turns it into an error.
	huge := map[string][]int64{
		"a": make([]int64, 1<<14), "b": make([]int64, 1<<14), "c": make([]int64, 1<<12),
	}
	if _, err := tpdf.Grid(huge); err == nil {
		t.Fatal("unallocatable grid must be rejected")
	}
}

// TestSweepParallelIdentical runs the OFDM buffer sweep through the public
// Sweep API and checks the parallel results equal the sequential ones in
// value and order.
func TestSweepParallelIdentical(t *testing.T) {
	g, err := tpdf.Builtin("ofdm")
	if err != nil {
		t.Fatal(err)
	}
	// 48 points: enough for pool.GridWorkers to give all four workers a
	// share (a grid this test shrinks below that would pass vacuously).
	grid, err := tpdf.Grid(map[string][]int64{"beta": {1, 2, 3, 4, 5, 6, 7, 8}, "N": {8, 16, 24, 32, 40, 48}})
	if err != nil {
		t.Fatal(err)
	}
	if nw := pool.GridWorkers(len(grid), 1, 4); nw != 4 {
		t.Fatalf("a %d-point grid shards over %d workers, want 4", len(grid), nw)
	}
	seq, err := tpdf.Sweep(g, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(grid) {
		t.Fatalf("%d points for %d grid entries", len(seq), len(grid))
	}
	for i, pt := range seq {
		if pt.TotalBuffer <= 0 || pt.Params["beta"] != grid[i]["beta"] {
			t.Fatalf("point %d malformed: %+v", i, pt)
		}
	}
	par, err := tpdf.Sweep(g, grid, tpdf.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel sweep diverged from sequential")
	}
	// A short grid shards as well once its points are long runs.
	if nw := pool.GridWorkers(8, 16, 2); nw != 2 {
		t.Fatalf("8 points of 16 iterations shard over %d workers, want 2", nw)
	}
	seq, err = tpdf.Sweep(g, grid[:8], tpdf.WithIterations(16))
	if err != nil {
		t.Fatal(err)
	}
	par, err = tpdf.Sweep(g, grid[:8], tpdf.WithIterations(16), tpdf.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel sweep of long runs diverged from sequential")
	}
}

// TestSweepMatchesOneShotSimulation verifies the compiled rebind sweep
// returns exactly what a fresh instantiate-and-simulate per point (the
// pre-compile-layer driver) produces.
func TestSweepMatchesOneShotSimulation(t *testing.T) {
	s, err := tpdf.BuiltinScenario("ofdm", nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := tpdf.Grid(map[string][]int64{"beta": {1, 3}, "N": {8, 32}})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := tpdf.Sweep(s.Graph, grid, tpdf.WithDecisions(s.Decide))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		res, err := sim.Run(sim.Config{
			Graph:       s.Graph,
			Env:         symb.Env(grid[i]),
			Decide:      s.Decide,
			BuffersOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Time != res.Time || pt.TotalBuffer != res.TotalBuffer() ||
			!reflect.DeepEqual(pt.HighWater, res.HighWater) ||
			!reflect.DeepEqual(pt.Final, res.Final) ||
			!reflect.DeepEqual(pt.Firings, res.Firings) {
			t.Fatalf("point %d (%v): sweep diverged from one-shot simulation", i, grid[i])
		}
	}
}

// TestSweepCancellation cancels a sweep mid-grid and demands a clean
// context error: no partial garbage, no hang, and the error surfaces
// whichever way the cancellation lands (between points or inside a run).
func TestSweepCancellation(t *testing.T) {
	g, err := tpdf.Builtin("ofdm")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := tpdf.Grid(map[string][]int64{"beta": {1, 2, 3, 4, 5, 6, 7, 8}, "N": {16, 32}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the sweep must abort on its first point
	if _, err := tpdf.Sweep(g, grid, tpdf.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}

	// Cancel concurrently with a parallel sweep; either the context error
	// surfaces or (if cancellation raced past completion) the sweep
	// finishes with every point intact.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cancel2(); close(done) }()
	pts, err := tpdf.Sweep(g, grid, tpdf.WithContext(ctx2), tpdf.WithParallelism(4))
	<-done
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
		}
	} else if len(pts) != len(grid) {
		t.Fatalf("uncancelled sweep returned %d points for %d grid entries", len(pts), len(grid))
	}
}
