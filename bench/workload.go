package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark workload: a name the driver asks for, the
// reason it exists, and a constructor for its seeded inputs.
type workload struct {
	name string
	why  string
	// prepare makes the inputs from the seed and computes the independent
	// references ops are checked against. It is untimed and runs once.
	prepare func(seed int64) (*plan, error)
}

// plan is a workload's seeded inputs, ready to be set up any number of
// times.
type plan struct {
	// setup is one complete set-up, from graph text to ready: parse,
	// compile, analyze, engine or server with every session open and
	// parked at its first barrier. Its duration plus teardown is setup_s.
	setup func(tr *tracer) (*live, error)
	// opKey renders op n as text. The run issues exactly these ops in this
	// order, so two runs of one seed agree on every byte of the stream.
	opKey func(n int) string
}

// live is one set-up instance.
type live struct {
	// op issues op n, waits for it and checks its output against the
	// reference; any error counts the op as failed.
	op func(tr *tracer, n int) error
	// verify checks state that exists only after the timed section (nil
	// when the workload has none).
	verify func() error
	// teardown releases everything setup started and waits for it.
	teardown func() error
}

// workloads is the fixed table; names match BENCHMARK.json.
func workloads() []workload {
	return []workload{
		streamSteadyWorkload(),
		streamModesWorkload(),
		servePumpWorkload(),
		serveDurableWorkload(),
		analysisWorkload(),
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is the run shape shared by every workload, derived from -seconds.
// -quick shrinks every phase so the name/format tests finish in tier-1
// time; quick numbers mean nothing.
type shape struct {
	setupMin  time.Duration // set-up phase lasts at least this long
	setupReps int           // ... and at least this many complete set-ups
	warmup    time.Duration
	blocks    int
	blockDur  time.Duration
	maxFailed int // abort the section once this many ops failed
	calibReps int // calibration ops per speed sample
	// Ladder rungs: the time unit rungs are budgeted in, the fewest calls
	// a rung makes, and the iteration counts of its engine runs.
	ladderUnit    time.Duration
	minCalls      int
	ladderIters   int64
	boundaryIters int64
}

func runShape(seconds int, quick bool) shape {
	if quick {
		return shape{
			setupMin: 30 * time.Millisecond, setupReps: 3,
			warmup: 30 * time.Millisecond,
			blocks: 3, blockDur: 40 * time.Millisecond,
			maxFailed: 10, calibReps: 1, ladderUnit: 2 * time.Millisecond,
			minCalls: 2, ladderIters: 128, boundaryIters: 32,
		}
	}
	return shape{
		setupMin: 2 * time.Second, setupReps: 25,
		warmup: 2 * time.Second,
		blocks: seconds, blockDur: time.Second,
		maxFailed: 100, calibReps: 3,
		// The ladder has ~50 rungs of 1-4 units each and may take half the
		// measuring time.
		ladderUnit: time.Duration(seconds) * time.Second / 200,
		minCalls:   5, ladderIters: steadyIters, boundaryIters: modesIters,
	}
}

// section is the outcome of one run of ops.
type section struct {
	blocks    []block
	attempted int
	failed    int
	firstErr  error
	nextOp    int
}

// runBlocks issues ops from op number start in n blocks of blockDur. An op
// belongs to the block it started in and a block's elapsed time runs to
// the end of its last op, so every op is counted whole. sizeHint
// preallocates each block's latency slice so the timed section's
// allocation count is the program's, not the recorder's. With a
// calibrator, the machine's speed is sampled between blocks and each block
// carries the median of the samples around it (blockSpeeds).
func runBlocks(lv *live, tr *tracer, cal *calibrator, start, n int, blockDur time.Duration, sizeHint, maxFailed int) section {
	sec := section{blocks: make([]block, n), nextOp: start}
	for i := range sec.blocks {
		sec.blocks[i].opMs = make([]float64, 0, sizeHint)
	}
	var ms runtime.MemStats
	var speeds []float64
	if cal != nil {
		speeds = append(speeds, cal.speed())
	}
	for i := range sec.blocks {
		b := &sec.blocks[i]
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		last := t0
		for last.Sub(t0) < blockDur {
			tr.setOp(sec.nextOp)
			sp := tr.begin("op")
			err := lv.op(tr, sec.nextOp)
			tr.end(sp)
			now := time.Now()
			sec.nextOp++
			sec.attempted++
			if err != nil {
				sec.failed++
				if sec.firstErr == nil {
					sec.firstErr = fmt.Errorf("op %d: %w", sec.nextOp-1, err)
				}
				if sec.failed >= maxFailed {
					return sec
				}
			} else {
				b.opMs = append(b.opMs, float64(now.Sub(last))/1e6)
			}
			last = now
		}
		b.elapsedS = last.Sub(t0).Seconds()
		runtime.ReadMemStats(&ms)
		b.mallocs = ms.Mallocs - m0
		if cal != nil {
			speeds = append(speeds, cal.speed())
		}
	}
	if cal != nil {
		for i, s := range blockSpeeds(speeds) {
			sec.blocks[i].speed = s
		}
	}
	return sec
}

// calibEvery is how stale a speed sample may get during the set-up phase.
const calibEvery = 500 * time.Millisecond

// measureSetup repeats complete set-ups (setup then teardown) until the
// phase has lasted setupMin and made setupReps of them, and returns each
// one's duration in seconds of reference-machine time: wall-clock × the
// newest speed sample.
func measureSetup(pl *plan, sh shape, cal *calibrator) ([]float64, error) {
	var durs []float64
	phase := time.Now()
	speed, sampled := cal.speed(), time.Now()
	for len(durs) < sh.setupReps || time.Since(phase) < sh.setupMin {
		if time.Since(sampled) > calibEvery {
			speed, sampled = cal.speed(), time.Now()
		}
		t0 := time.Now()
		lv, err := pl.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(durs), err)
		}
		if err := lv.teardown(); err != nil {
			return nil, fmt.Errorf("teardown %d: %w", len(durs), err)
		}
		durs = append(durs, time.Since(t0).Seconds()*speed)
	}
	return durs, nil
}

// result is what one run reports: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEndToEnd is the untraced run: set-up repetitions, warm-up, GC, the
// timed blocks, then the after-the-fact checks. End-to-end numbers come
// from here and nowhere else.
func runEndToEnd(w workload, seed int64, sh shape) (result, error) {
	pl, err := w.prepare(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	cal := newCalibrator(sh.calibReps)
	defer cal.close()
	setups, err := measureSetup(pl, sh, cal)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lv, err := pl.setup(nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm := runBlocks(lv, nil, nil, 0, 1, sh.warmup, 1024, sh.maxFailed)
	hint := 2*len(warm.blocks[0].opMs)*int(sh.blockDur)/int(sh.warmup) + 64
	runtime.GC()
	sec := runBlocks(lv, nil, cal, warm.nextOp, sh.blocks, sh.blockDur, hint, sh.maxFailed)

	res := result{Attempted: warm.attempted + sec.attempted, Failed: warm.failed + sec.failed}
	firstErr := warm.firstErr
	if firstErr == nil {
		firstErr = sec.firstErr
	}
	firstErr = finishRun(lv, &res, firstErr)
	s := summarize(sec.blocks)
	res.Metrics = map[string]metric{
		"ops_per_s":     {Value: s.opsPerS, Unit: "1/s"},
		"op_p50_ms":     {Value: s.p50Ms, Unit: "ms"},
		"op_p90_ms":     {Value: s.p90Ms, Unit: "ms"},
		"allocs_per_op": {Value: s.allocsPerOp, Unit: "count"},
		"setup_s":       {Value: median(setups), Unit: "s"},
	}
	wall := summarize(wallClock(sec.blocks))
	logf("%s seed=%d gomaxprocs=%d: %d ops in %d blocks, %d set-ups; wall-clock ops_per_s %.5g p50 %.5g ms p90 %.5g ms p99 %.5g ms, total/elapsed %.5g ops/s",
		w.name, seed, runtime.GOMAXPROCS(0), s.ops, len(sec.blocks), len(setups), wall.opsPerS, wall.p50Ms, wall.p90Ms, wall.p99Ms, wall.opsPerSTotal)
	logf("%s block ops/s: %s", w.name, blockSeries(sec.blocks))
	if firstErr != nil {
		return res, fmt.Errorf("%s: %d of %d ops failed, first: %w", w.name, res.Failed, res.Attempted, firstErr)
	}
	return res, nil
}

// finishRun runs the after-the-fact checks and the teardown, counts a
// failure of either as one more failed op, sets res.Correct and returns
// the run's first error.
func finishRun(lv *live, res *result, firstErr error) error {
	if lv.verify != nil && firstErr == nil {
		if err := lv.verify(); err != nil {
			res.Failed++
			firstErr = fmt.Errorf("verify: %w", err)
		}
	}
	if err := lv.teardown(); err != nil && firstErr == nil {
		res.Failed++
		firstErr = fmt.Errorf("teardown: %w", err)
	}
	res.Correct = res.Failed == 0
	return firstErr
}

// wallClock returns the blocks without their speed samples, so that
// summarize yields wall-clock figures.
func wallClock(blocks []block) []block {
	out := append([]block(nil), blocks...)
	for i := range out {
		out[i].speed = 0
	}
	return out
}

// blockSeries renders each block's wall-clock ops/second, machine speed
// and wall-clock p50/p90: the series the run's figures are taken over,
// before the speed correction. A drifting or stalled run is visible in it
// at a glance.
func blockSeries(blocks []block) string {
	var sb strings.Builder
	for _, b := range blocks {
		if b.elapsedS > 0 {
			fmt.Fprintf(&sb, "%.4g ", float64(len(b.opMs))/b.elapsedS)
		}
	}
	sb.WriteString("| speed:")
	for _, b := range blocks {
		fmt.Fprintf(&sb, " %.3f", b.speed)
	}
	sb.WriteString(" | p50 ms:")
	for _, b := range blocks {
		fmt.Fprintf(&sb, " %.4g", percentile(b.opMs, 50))
	}
	sb.WriteString(" | p90 ms:")
	for _, b := range blocks {
		fmt.Fprintf(&sb, " %.4g", percentile(b.opMs, 90))
	}
	return sb.String()
}
