package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runTraced is the traced run: the workload's ops in alternating untraced
// and traced blocks (their difference is the tracing overhead), then the
// ladder. It reports per-layer metrics only; end-to-end numbers are never
// taken from here.
func runTraced(w workload, seed int64, sh shape, out string) (result, error) {
	pl, err := w.prepare(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	cal := newCalibrator(sh.calibReps)
	defer cal.close()
	tr := newTracer()
	tr.setOp(-1)
	lv, err := pl.setup(tr)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	// A fifth of the measuring time each for the untraced and the traced
	// blocks, a tenth to warm up; the ladder takes the rest.
	pairs := max(sh.blocks/5, 1)
	warm := runBlocks(lv, nil, nil, 0, 1, sh.warmup/2, 1024, sh.maxFailed)
	hint := 2*len(warm.blocks[0].opMs)*int(sh.blockDur)/int(sh.warmup/2) + 64
	runtime.GC()
	var plainBlocks, tracedBlocks []block
	res := result{Attempted: warm.attempted, Failed: warm.failed}
	firstErr := warm.firstErr
	next := warm.nextOp
	cpu0, wall0 := cpuTime(), time.Now()
	for i := 0; i < pairs && res.Failed == 0; i++ {
		for _, t := range [2]*tracer{nil, tr} {
			sec := runBlocks(lv, t, cal, next, 1, sh.blockDur, hint, sh.maxFailed)
			next = sec.nextOp
			res.Attempted += sec.attempted
			res.Failed += sec.failed
			if firstErr == nil {
				firstErr = sec.firstErr
			}
			if t == nil {
				plainBlocks = append(plainBlocks, sec.blocks...)
			} else {
				tracedBlocks = append(tracedBlocks, sec.blocks...)
			}
		}
	}
	cpu, wall := cpuTime()-cpu0, time.Since(wall0)
	if firstErr = finishRun(lv, &res, firstErr); firstErr != nil {
		return res, fmt.Errorf("%s: %d of %d ops failed, first: %w", w.name, res.Failed, res.Attempted, firstErr)
	}
	ps, ts := summarize(plainBlocks), summarize(tracedBlocks)
	logf("%s seed=%d traced run: %d untraced and %d traced ops, cpu/wall %.2f", w.name, seed, ps.ops, ts.ops, cpu.Seconds()/wall.Seconds())

	res.Metrics, err = runLadder(tr, sh, seed)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Metrics["op_p99_ms"] = metric{Value: ps.p99Ms, Unit: "ms"}
	res.Metrics["ops_per_s_total"] = metric{Value: ps.opsPerSTotal, Unit: "1/s"}
	res.Metrics["proc.cpu_ms_per_op"] = metric{Value: cpu.Seconds() * 1e3 / float64(ps.ops+ts.ops), Unit: "ms"}
	res.Metrics["trace.overhead_pct"] = metric{Value: (ps.opsPerS - ts.opsPerS) / ps.opsPerS * 100, Unit: "%"}
	var speeds []float64
	for _, b := range append(plainBlocks, tracedBlocks...) {
		speeds = append(speeds, b.speed)
	}
	res.Metrics["machine.speed"] = metric{Value: median(speeds), Unit: "ratio"}

	printSpanTable(tr)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return res, err
	}
	if err := tr.writeChromeTrace(out); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	logf("%d spans (%d dropped) written to %s", len(tr.spans), tr.dropped, out)
	return res, nil
}

// printSpanTable logs, per span name, the call count and the median and
// total self time.
func printSpanTable(tr *tracer) {
	by := selfByName(tr.spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	logf("%-32s %8s %14s %12s", "span", "calls", "median self us", "total ms")
	for _, n := range names {
		var total float64
		for _, v := range by[n] {
			total += v
		}
		logf("%-32s %8d %14.2f %12.2f", n, len(by[n]), median(by[n])/1e3, total/1e6)
	}
}
