package buffer_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/buffer"
	"repro/internal/pool"
)

// upTo returns 1..n.
func upTo(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) + 1
	}
	return out
}

// TestOFDMSweepParallelIdentical verifies the sharded Fig. 8 sweep yields
// exactly the sequential points — same values, same N-major/β-minor order
// — across several worker counts and grid shapes.
func TestOFDMSweepParallelIdentical(t *testing.T) {
	grids := []struct {
		betas []int64
		ns    []int64
	}{
		{upTo(12), []int64{8, 16, 24, 32}},
		{upTo(25), []int64{64}},
	}
	for _, grid := range grids {
		// Large enough that pool.GridWorkers starts a second worker (a
		// smaller grid runs inline and would pass vacuously).
		if nw := pool.GridWorkers(len(grid.betas)*len(grid.ns), 1, 8); nw < 2 {
			t.Fatalf("a %d×%d grid does not shard", len(grid.betas), len(grid.ns))
		}
		want, err := buffer.OFDMSweep(grid.betas, grid.ns, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := buffer.OFDMSweepParallel(grid.betas, grid.ns, 4, 1, workers)
			if err != nil {
				t.Fatalf("parallel=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel=%d: sweep diverged from sequential", workers)
			}
		}
	}
}

// TestOFDMSweepMatchesOneShotPoints verifies the worker-reusing sweep —
// one compiled program rebound across all the points a worker shards —
// yields exactly the points OFDMPoint produces with a fresh worker (fresh
// graphs, programs and simulators) per point.
func TestOFDMSweepMatchesOneShotPoints(t *testing.T) {
	betas := []int64{1, 4, 9}
	ns := []int64{16, 32}
	got, err := buffer.OFDMSweepParallel(betas, ns, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range got {
		n, beta := ns[i/len(betas)], betas[i%len(betas)]
		want, err := buffer.OFDMPoint(apps.OFDMParams{Beta: beta, M: 4, N: n, L: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt, want) {
			t.Fatalf("point %d (beta=%d N=%d): sweep %+v, one-shot %+v", i, beta, n, pt, want)
		}
	}
}
