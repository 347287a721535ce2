package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the "inclusive" definition: p=0 is the minimum,
// p=100 the maximum); 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// block is one fixed-length slice of the timed section: its own elapsed
// time, per-op latencies and allocation count, so that one stalled second
// moves one block and not the run's figure. speed is the machine's speed
// while the block ran (see calib.go); 0 means not calibrated and counts
// as 1.
type block struct {
	elapsedS float64
	opMs     []float64
	mallocs  uint64
	speed    float64
}

// blockSummary is the run-level figure set derived from the blocks: every
// field is the median over blocks of the block's own statistic, times in
// reference-machine time (wall-clock × the block's speed).
type blockSummary struct {
	opsPerS     float64
	p50Ms       float64
	p90Ms       float64
	p99Ms       float64
	allocsPerOp float64
	// opsPerSTotal is total ops over total elapsed: the naive figure the
	// block median is robust against, reported beside it as a layer number.
	opsPerSTotal float64
	ops          int
}

// summarize folds blocks into the run's figures. Blocks with no completed
// op (possible only when one op outlasts a block) are skipped.
func summarize(blocks []block) blockSummary {
	var rate, p50, p90, p99, allocs []float64
	var s blockSummary
	var elapsed float64
	for _, b := range blocks {
		n := len(b.opMs)
		if n == 0 || b.elapsedS <= 0 {
			continue
		}
		speed := b.speed
		if speed == 0 {
			speed = 1
		}
		s.ops += n
		elapsed += b.elapsedS * speed
		rate = append(rate, float64(n)/(b.elapsedS*speed))
		p50 = append(p50, percentile(b.opMs, 50)*speed)
		p90 = append(p90, percentile(b.opMs, 90)*speed)
		p99 = append(p99, percentile(b.opMs, 99)*speed)
		allocs = append(allocs, float64(b.mallocs)/float64(n))
	}
	s.opsPerS = median(rate)
	s.p50Ms = median(p50)
	s.p90Ms = median(p90)
	s.p99Ms = median(p99)
	s.allocsPerOp = median(allocs)
	if elapsed > 0 {
		s.opsPerSTotal = float64(s.ops) / elapsed
	}
	return s
}

// relDiff is |b-a| as a share of a (0 when a is 0).
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}

// fitLine is the least-squares line y = intercept + slope*x.
func fitLine(xs, ys []float64) (intercept, slope float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	return (sy - slope*sx) / n, slope
}
