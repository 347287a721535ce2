package main

import (
	"sort"
	"time"
)

// This box is a shared VM whose speed for ordinary Go code moves by up to
// 1.45× for tens of minutes at a time (every workload moves together; a
// neighbour, not the program). Wall-clock figures from two sets of runs
// taken half an hour apart then differ by more than any bound the
// benchmark could usefully hold. So the timed phases are interleaved with
// a calibration: a fixed piece of standard-library-only work, independent
// of the repository's code, timed where the workload is timed. Its rate
// over refCalibPerS is the machine's speed at that moment, and every
// time-based end-to-end figure is reported in reference-machine time:
// durations × speed, rates ÷ speed. On an undisturbed box speed is ≈ 1 and
// the figures are wall-clock; the traced run reports the speed it saw as
// machine.speed, and every run logs its wall-clock figures beside the
// reported ones.

// refCalibPerS is the calibration rate of this box (2-core Xeon @ 2.1 GHz
// VM, go1.24) in its undisturbed state.
const refCalibPerS = 80.0

// calibrator owns the calibration's fixed inputs and its echo goroutine.
type calibrator struct {
	reps  int // ops per speed sample
	table []uint32
	keys  []int
	ping  chan int
	pong  chan int
	sink  uint32
}

func newCalibrator(reps int) *calibrator {
	c := &calibrator{reps: reps, table: make([]uint32, 64<<10), keys: make([]int, 4096), ping: make(chan int), pong: make(chan int)}
	x := uint32(12345)
	for i := range c.table {
		x = x*1664525 + 1013904223
		c.table[i] = x
	}
	go func() {
		for v := range c.ping {
			c.pong <- v
		}
	}()
	return c
}

// close stops the echo goroutine.
func (c *calibrator) close() { close(c.ping) }

// work is one calibration op, ≈ 13 ms on the reference box, made of what
// the workloads are made of: data-dependent loads over a 256 KB table,
// small allocations that the collector has to clear, sorting, and
// goroutine hand-offs through channels.
func (c *calibrator) work() {
	idx, acc := uint32(0), uint32(0)
	for i := 0; i < 1_400_000; i++ {
		v := c.table[idx&uint32(len(c.table)-1)]
		acc += v ^ (v >> 7)
		idx = idx*5 + v + 1
	}
	type node struct {
		next *node
		v    [6]int
	}
	var head *node
	for i := 0; i < 120_000; i++ {
		n := &node{next: head}
		n.v[0] = i
		if head = n; i%64 == 0 {
			head = nil
		}
	}
	for round := 0; round < 2; round++ {
		for i := range c.keys {
			c.keys[i] = int(c.table[i+round] >> 8)
		}
		sort.Ints(c.keys)
	}
	for i := 0; i < 10_000; i++ {
		c.ping <- i
		acc += uint32(<-c.pong)
	}
	if head != nil {
		acc++
	}
	c.sink = acc + uint32(c.keys[0])
}

// speed returns the machine's speed relative to the reference box: the
// fastest of reps calibration ops (three in a real run), because
// millisecond-scale jitter on this box only ever slows an op down (a 4 ms
// arithmetic loop has a p10-p90 range of 11 %), and the sample should see
// the machine's state, not its hiccups.
func (c *calibrator) speed() float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < c.reps; i++ {
		t0 := time.Now()
		c.work()
		best = min(best, time.Since(t0))
	}
	return 1 / best.Seconds() / refCalibPerS
}

// blockSpeeds turns the n+1 samples taken around n blocks (sample i before
// block i, sample i+1 after it) into one speed per block: the median of
// the six samples nearest the block, which follows a change of state
// within a few seconds and ignores a sample that caught a hiccup anyway.
func blockSpeeds(samples []float64) []float64 {
	out := make([]float64, len(samples)-1)
	for i := range out {
		out[i] = median(samples[max(0, i-2):min(len(samples), i+4)])
	}
	return out
}
