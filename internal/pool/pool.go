// Package pool is the bounded worker pool behind the two kinds of parallel
// driver the repository keeps: the grid shard with worker-owned compiled
// state (tpdf.Sweep, buffer.OFDMSweepParallel) and coarse CPU work (the
// internal/imaging pixel kernels, experiments.All across experiments);
// everything else runs inline on its caller's goroutine. Work items are
// identified by index and results are written by index, so output order is
// identical whatever the parallelism, and a parallel run is byte-for-byte
// comparable with a sequential one.
package pool

import "sync"

// gridRunsPerWorker is the fewest simulated iterations — grid points ×
// iterations per point — a sweep worker must get before it is worth
// starting: each worker pays a core.Compile and a pooled Simulator (two of
// each in buffer.OFDMSweepParallel), ≈ 50 µs, before its first point.
// Calibrated on the 2-core box on OFDM points, which cost ≈ 12 µs + 2 µs
// per iteration: at 1 iteration width 2 first beats width 1 beyond the
// run-to-run spread on 24 points, at 16 and 100 iterations it does on every
// grid of 4 to 23 points (×1.5–1.9 from 8 up). ROADMAP's keep/delete table
// (direction 4) has the numbers; ≥ 4 cores: unverified.
const gridRunsPerWorker = 12

// workers clamps the requested parallelism to the number of items:
// anything below 2 means sequential.
func workers(n, parallel int) int {
	return max(1, min(n, parallel))
}

// GridWorkers is the worker count of a grid shard over n points simulated
// for the given iterations each (below 1 counts as 1): the requested
// parallelism, lowered until every worker has at least gridRunsPerWorker
// point-iterations, so a small grid of cheap points runs inline and one of
// long runs still shards.
func GridWorkers(n int, iterations int64, parallel int) int {
	if iterations < gridRunsPerWorker { // else any one point pays for a worker
		parallel = min(parallel, n*int(max(1, iterations))/gridRunsPerWorker)
	}
	return workers(n, parallel)
}

// Run invokes fn(i) for every i in [0, n), using up to parallel concurrent
// workers. parallel <= 1 degenerates to a plain loop on the caller's
// goroutine. All items run even when some fail; the returned error is the
// lowest-indexed one, matching what a sequential loop that collects errors
// would report.
func Run(n, parallel int, fn func(i int) error) error {
	return RunWorkers(n, parallel, func(_, i int) error { return fn(i) })
}

// RunWorkers is Run with the worker identity exposed: fn(w, i) runs item i
// on worker w in [0, min(n, parallel)). Workers process disjoint items,
// so per-worker state (a pooled simulator, a scratch buffer) needs no
// locking.
func RunWorkers(n, parallel int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	nw := workers(n, parallel)
	if nw == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
