package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50},
		{25, 20}, // rank 1 exactly
		{90, 46}, // rank 3.6: 40 + 0.6*(50-40)
		{10, 14}, // rank 0.4: 10 + 0.4*(20-10)
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile sorted its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// TestSummarizeBlockMedians checks that every run figure is the median
// over blocks of the block's own statistic, so that one stalled block
// moves none of them, while the total/elapsed figure does move.
func TestSummarizeBlockMedians(t *testing.T) {
	steady := func() block {
		return block{elapsedS: 1, opMs: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 3}, mallocs: 100}
	}
	stalled := block{elapsedS: 5, opMs: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 4000}, mallocs: 900}
	s := summarize([]block{steady(), stalled, steady(), {}})
	if s.ops != 30 {
		t.Errorf("ops = %d, want 30 (the empty block adds none)", s.ops)
	}
	if !near(s.opsPerS, 10) {
		t.Errorf("ops_per_s = %v, want the steady blocks' 10", s.opsPerS)
	}
	if !near(s.p50Ms, 1) {
		t.Errorf("p50 = %v, want 1", s.p50Ms)
	}
	if want := 1 + 0.1*2; !near(s.p90Ms, want) { // rank 8.1 of the steady block
		t.Errorf("p90 = %v, want %v", s.p90Ms, want)
	}
	if !near(s.allocsPerOp, 10) {
		t.Errorf("allocs_per_op = %v, want 10", s.allocsPerOp)
	}
	if want := 30.0 / 7; !near(s.opsPerSTotal, want) {
		t.Errorf("ops_per_s_total = %v, want %v: the stall must show there", s.opsPerSTotal, want)
	}
	if z := summarize(nil); z.ops != 0 || z.opsPerS != 0 {
		t.Errorf("summarize(nil) = %+v, want zeros", z)
	}
}

// TestSummarizeReferenceTime checks the speed correction: a block measured
// while the machine ran at half speed reports what the reference machine
// would have measured, twice the rate and half the latency, and
// wallClock undoes it.
func TestSummarizeReferenceTime(t *testing.T) {
	slow := []block{{elapsedS: 2, opMs: []float64{200, 200, 200, 200, 200, 200, 200, 200, 200, 200}, mallocs: 50, speed: 0.5}}
	s := summarize(slow)
	if !near(s.opsPerS, 10) || !near(s.p50Ms, 100) || !near(s.p90Ms, 100) || !near(s.opsPerSTotal, 10) {
		t.Errorf("at speed 0.5: %+v, want 10 ops/s and 100 ms", s)
	}
	if !near(s.allocsPerOp, 5) {
		t.Errorf("allocs_per_op = %v, want 5: counts are not corrected", s.allocsPerOp)
	}
	if w := summarize(wallClock(slow)); !near(w.opsPerS, 5) || !near(w.p50Ms, 200) {
		t.Errorf("wall-clock: %+v, want 5 ops/s and 200 ms", w)
	}
	if slow[0].speed != 0.5 {
		t.Error("wallClock modified its input")
	}
}

// TestBlockSpeeds: a block's speed is the median of the six samples
// nearest to it, so one sample that caught a hiccup moves nothing and a
// change of state is followed within three blocks.
func TestBlockSpeeds(t *testing.T) {
	samples := []float64{1, 1, 1, 0.2, 1, 1, 0.7, 0.7, 0.7, 0.7, 0.7}
	want := []float64{1, 1, 1, 1, 0.85, 0.7, 0.7, 0.7, 0.7, 0.7}
	got := blockSpeeds(samples)
	if len(got) != len(want) {
		t.Fatalf("%d speeds for %d samples, want %d", len(got), len(samples), len(want))
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("block %d: speed %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if one := blockSpeeds([]float64{0.9, 1.1}); len(one) != 1 || !near(one[0], 1) {
		t.Errorf("one block between two samples: %v, want [1]", one)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 110); !near(got, 0.10) {
		t.Errorf("relDiff(100, 110) = %v, want 0.10", got)
	}
	if got := relDiff(100, 90); !near(got, 0.10) {
		t.Errorf("relDiff(100, 90) = %v, want 0.10", got)
	}
	if got := relDiff(0, 5); got != 0 {
		t.Errorf("zero base = %v, want 0", got)
	}
}

func TestFitLine(t *testing.T) {
	a, b := fitLine([]float64{1, 8, 64}, []float64{5 + 2*1, 5 + 2*8, 5 + 2*64})
	if !near(a, 5) || !near(b, 2) {
		t.Errorf("fitLine on an exact line = %v + %v x, want 5 + 2 x", a, b)
	}
	a, b = fitLine([]float64{3, 3}, []float64{4, 6})
	if !near(a, 5) || b != 0 {
		t.Errorf("fitLine with one x = %v + %v x, want 5 + 0 x", a, b)
	}
}

// TestSpanSelfTime checks self time = span minus direct children on a
// hand-made trace: op [0,100] holds a [10,40] and b [50,90]; b holds
// c [60,70].
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 50, end: 90, parent: 0},
		{name: "c", start: 60, end: 70, parent: 2},
		{name: "a", start: 200, end: 205, parent: -1},
	}
	want := []int64{100 - 30 - 40, 30, 40 - 10, 10, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if len(by["a"]) != 2 || by["a"][0] != 30 || by["a"][1] != 5 {
		t.Errorf("selfByName[a] = %v, want [30 5]", by["a"])
	}
}

// TestTracerNesting drives the recorder itself: parents follow the call
// nesting, ops tag their spans, and a nil tracer records nothing.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setOp(7)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	if d := tr.end(inner); d < 0 {
		t.Errorf("inner duration %d < 0", d)
	}
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	top := tr.begin("top")
	tr.end(top)
	wantParent := []int32{-1, 0, 0, -1}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.op != 7 || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d op 7", i, s, wantParent[i])
		}
	}
	var none *tracer
	none.setOp(1)
	if id := none.begin("x"); id != -1 || none.end(id) != 0 {
		t.Errorf("nil tracer recorded a span")
	}
}
