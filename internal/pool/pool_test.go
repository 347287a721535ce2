package pool

import "testing"

// TestGridWorkers pins the grain rule: a worker per gridRunsPerWorker
// point-iterations, never more workers than points or than asked for.
func TestGridWorkers(t *testing.T) {
	for _, c := range []struct {
		n          int
		iterations int64
		parallel   int
		want       int
	}{
		{23, 1, 2, 1}, // cheap points: inline below two workers' worth
		{24, 1, 2, 2},
		{48, 1, 8, 4},
		{8, 0, 2, 1}, // iterations below 1 count as 1
		{12, 2, 2, 2},
		{8, 16, 2, 2}, // long runs shard however few the points
		{8, 100, 4, 4},
		{2, 100, 4, 2},
		{1, 1 << 62, 4, 1},
		{1 << 24, 1 << 62, 4, 4},
		{256, 1, 1, 1},
		{256, 1, 0, 1},
		{0, 1, 4, 1},
	} {
		if got := GridWorkers(c.n, c.iterations, c.parallel); got != c.want {
			t.Errorf("GridWorkers(%d, %d, %d) = %d, want %d", c.n, c.iterations, c.parallel, got, c.want)
		}
	}
}
