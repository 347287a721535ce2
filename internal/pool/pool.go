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

// gridPointsPerWorker is the fewest grid points a sweep worker must get
// before it is worth starting: each worker pays a core.Compile and a pooled
// Simulator (two of each in buffer.OFDMSweepParallel) before its first
// point. Measured on the 2-core box (go1.24, -cpu 2) over uniform subsets
// of the bench OFDM grid (β 1..16 × N 32..512), width 1 against width 2,
// min–max over 5–10 passes in each of two to four sessions. tpdf.Sweep:
// 8 points 106–120 vs 115–144 µs (loses); 16 points 174–244 vs 130–214
// (ranges overlap in three sessions of four); 20 points 204–280 vs 154–213
// (disjoint); 24 points 240–292 vs 175–245 in 15 passes of 17.
// buffer.OFDMSweepParallel: 16 points 367–516 vs 299–476 and 20 points
// 429–564 vs 321–459 (overlap); 24 points 558–716 vs 375–493 (disjoint).
// 24 points is the first grid on which a second worker beat the spread for
// both callers: 12 each. ≥ 4 cores: unverified.
const gridPointsPerWorker = 12

// workers clamps the requested parallelism to the number of items:
// anything below 2 means sequential.
func workers(n, parallel int) int {
	return max(1, min(n, parallel))
}

// GridWorkers is the worker count of a grid shard over n points: the
// requested parallelism, lowered until every worker has at least
// gridPointsPerWorker points (so a grid below twice that runs inline).
func GridWorkers(n, parallel int) int {
	return workers(n, min(parallel, n/gridPointsPerWorker))
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
