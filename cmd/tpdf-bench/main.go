// Command tpdf-bench regenerates the paper's tables and figures and runs
// the streaming engine's overhead gates. It does not judge performance
// changes: that is bench/run.sh with BENCHMARK.json, which compares two
// builds on the same machine.
//
// Usage:
//
//	tpdf-bench                  # every table and figure (1024×1024 image for t6)
//	tpdf-bench -quick           # reduced image size, shorter sweeps
//	tpdf-bench -exp f8          # a single experiment (see tpdf.ExperimentNames)
//	tpdf-bench -parallel 8      # run experiments side by side on 8 workers
//	tpdf-bench -engine -quick -metrics-overhead 0.02 -ckpt-overhead 0.02
//	                            # overhead gates: every streaming workload is run
//	                            # bare, with a metrics registry attached
//	                            # ("+metrics") and with checkpoint capture
//	                            # armed but idle ("+ckpt"), in paired interleaved
//	                            # rounds inside this one process; the run fails when
//	                            # a twin is statistically more than 2% slower than
//	                            # its base or allocates per iteration
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/tpdf"
	"repro/tpdf/obs"
)

// streamWorkload is one graph the -engine mode pushes through tpdf.Stream
// with throughput-bound behaviors: no sleeps, so ns/op is dominated by the
// transport and synchronization the ring-buffer engine optimizes, and
// allocs/op by the warm firing path, which is allocation-free by
// construction.
type streamWorkload struct {
	name  string
	iters int64
	build func() (*tpdf.Graph, map[string]tpdf.Behavior, []tpdf.Option, error)
	// ckptArmed marks workloads that already run with checkpoint capture
	// on; they are their own checkpoint measurement and get no "+ckpt"
	// twin (stacking a second WithCheckpoints would invert the pair).
	ckptArmed bool
}

// passthrough forwards one payload without allocating (direct append into
// the reused scratch slice; no variadic box).
func passthrough(f *tpdf.Firing) error {
	f.Out["o0"] = append(f.Out["o0"], f.In["i0"][0])
	return nil
}

// burstPipeline finishes b into SRC[32] -> A -> B -> SNK[snkRate] with a
// 32-token source burst forwarded by passthrough stages: ~100 firings of
// real per-epoch work for the boundary-heavy workloads to amortize against.
func burstPipeline(b *tpdf.GraphBuilder, snkRate string) (*tpdf.Graph, map[string]tpdf.Behavior, error) {
	g, err := b.Kernel("SRC", 1).Kernel("A", 1).Kernel("B", 1).Kernel("SNK", 1).
		Connect("SRC[32] -> A[1]").
		Connect("A[1] -> B[1]").
		Connect("B[1] -> SNK[" + snkRate + "]").
		Build()
	if err != nil {
		return nil, nil, err
	}
	return g, map[string]tpdf.Behavior{
		"SRC": func(f *tpdf.Firing) error {
			for i := 0; i < 32; i++ {
				f.Out["o0"] = append(f.Out["o0"], i)
			}
			return nil
		},
		"A": passthrough, "B": passthrough,
		"SNK": func(f *tpdf.Firing) error { return nil },
	}, nil
}

// engineWorkloads builds the -engine benchmark set: a unit-rate pipeline,
// a cyclo-static multirate chain, a fan-out, and a graph that rebinds a
// parameter at every transaction boundary.
func engineWorkloads(quick bool) []streamWorkload {
	scale := int64(1)
	if quick {
		scale = 4
	}
	return []streamWorkload{
		{name: "stream/pipe", iters: 16384 / scale, build: func() (*tpdf.Graph, map[string]tpdf.Behavior, []tpdf.Option, error) {
			g := tpdf.OFDMPayloadGraph()
			behaviors := map[string]tpdf.Behavior{
				"SRC": func(f *tpdf.Firing) error {
					f.Out["o0"] = append(f.Out["o0"], 7)
					return nil
				},
				"RCP": passthrough, "FFT": passthrough, "QAM": passthrough,
				"SNK": func(f *tpdf.Firing) error { return nil },
			}
			return g, behaviors, nil, nil
		}},
		{name: "stream/multirate", iters: 8192 / scale, build: func() (*tpdf.Graph, map[string]tpdf.Behavior, []tpdf.Option, error) {
			g, err := tpdf.NewGraph("multirate").
				Kernel("SRC", 1).Kernel("A", 1).Kernel("B", 1).Kernel("SNK", 1).
				Connect("SRC[4] -> A[3,1]").
				Connect("A[2] -> B[4]").
				Connect("B[3] -> SNK[1]").
				Build()
			if err != nil {
				return nil, nil, nil, err
			}
			behaviors := map[string]tpdf.Behavior{
				"SRC": func(f *tpdf.Firing) error {
					f.Out["o0"] = append(f.Out["o0"], 1, 2, 3, 4)
					return nil
				},
				"A": func(f *tpdf.Firing) error {
					f.Out["o0"] = append(f.Out["o0"], 5, 6)
					return nil
				},
				"B": func(f *tpdf.Firing) error {
					f.Out["o0"] = append(f.Out["o0"], 7, 8, 9)
					return nil
				},
			}
			return g, behaviors, nil, nil
		}},
		{name: "stream/fanout", iters: 8192 / scale, build: func() (*tpdf.Graph, map[string]tpdf.Behavior, []tpdf.Option, error) {
			b := tpdf.NewGraph("fanout").Kernel("SRC", 1)
			for i := 0; i < 4; i++ {
				b = b.Kernel(fmt.Sprintf("W%d", i), 1)
			}
			b = b.Kernel("SNK", 1)
			for i := 0; i < 4; i++ {
				b = b.Connect(fmt.Sprintf("SRC[1] -> W%d[1]", i)).
					Connect(fmt.Sprintf("W%d[1] -> SNK[1]", i))
			}
			g, err := b.Build()
			if err != nil {
				return nil, nil, nil, err
			}
			behaviors := map[string]tpdf.Behavior{
				"SRC": func(f *tpdf.Firing) error {
					for i := 0; i < 4; i++ {
						port := [4]string{"o0", "o1", "o2", "o3"}[i]
						f.Out[port] = append(f.Out[port], 1)
					}
					return nil
				},
			}
			for i := 0; i < 4; i++ {
				behaviors[fmt.Sprintf("W%d", i)] = passthrough
			}
			return g, behaviors, nil, nil
		}},
		// stream/reconfigure rebinds a rate parameter at every transaction
		// boundary of a pipeline doing real per-epoch work (~100 firings
		// through passthrough behaviors), so the pair measures rebind +
		// barrier machinery amortized the way any production graph
		// amortizes it — against the epochs it separates. A bare two-actor
		// micrograph would instead measure nothing but boundary cost, where
		// a single clock read is already percents of the epoch.
		{name: "stream/reconfigure", iters: 2048 / scale, build: func() (*tpdf.Graph, map[string]tpdf.Behavior, []tpdf.Option, error) {
			g, behaviors, err := burstPipeline(tpdf.NewGraph("reconf").Param("p", 2, 1, 8), "p")
			opts := []tpdf.Option{tpdf.WithReconfigure(func(completed int64) map[string]int64 {
				// Cycle consumption rates that divide SRC's 32-token burst.
				return map[string]int64{"p": [3]int64{2, 4, 8}[completed%3]}
			})}
			return g, behaviors, opts, err
		}},
		// stream/checkpoint measures the full fault-tolerance data path:
		// the run rehydrates from a checkpoint (one restore, taken outside
		// the timed window) and then captures a full recovery point at
		// every transaction barrier, handing it to a sink that copies it
		// into a held arena — the exact shape of a supervised serve
		// session restarting and then keeping a rolling restart point. The
		// pipeline does the same ~100 firings of real per-epoch work as
		// stream/reconfigure, so the number reports restore + capture +
		// copy cost amortized the way a supervisor amortizes it.
		{name: "stream/checkpoint", iters: 2048 / scale, ckptArmed: true, build: func() (*tpdf.Graph, map[string]tpdf.Behavior, []tpdf.Option, error) {
			g, behaviors, err := burstPipeline(tpdf.NewGraph("ckpt"), "4")
			if err != nil {
				return nil, nil, nil, err
			}
			// A no-op reconfigure hook forces a barrier per iteration so
			// every iteration produces a checkpoint, as a supervised
			// session's rolling recovery point does.
			noop := func(int64) map[string]int64 { return nil }
			// Prime the restore source outside the timed window: a short
			// checkpointed leg whose final barrier cut the measured run
			// resumes from (WithIterations is the total target, so the
			// timed run performs the remaining iterations).
			prime := &tpdf.Checkpoint{}
			if _, err := tpdf.Stream(g, behaviors,
				tpdf.WithIterations(64),
				tpdf.WithReconfigure(noop),
				tpdf.WithCheckpoints(func(ck *tpdf.Checkpoint) { ck.CopyInto(prime) })); err != nil {
				return nil, nil, nil, err
			}
			held := &tpdf.Checkpoint{}
			opts := []tpdf.Option{
				tpdf.WithReconfigure(noop),
				tpdf.WithCheckpoints(func(ck *tpdf.Checkpoint) { ck.CopyInto(held) }),
				tpdf.WithResume(prime),
			}
			return g, behaviors, opts, nil
		}},
	}
}

// variant is one configuration of a workload — the bare base or a
// decorated twin — and its measurement inside the workload's interleaved
// round set (see measureTimingSet for the estimators).
type variant struct {
	name string
	// prep builds a fresh run closure per round.
	prep func() (func() error, error)
	// ns and allocs are wall time and heap allocations (all goroutines) of
	// the variant's single fastest round.
	ns     int64
	allocs uint64
	// overhead (twins only) is the median paired (twin-base)/base wall-time
	// ratio; overheadLo is the lower bound of its one-sided 95% confidence
	// interval, which is what the gates judge: on a contended runner the
	// median still wobbles a couple percent, and a gate that fails only
	// when the overhead is statistically above budget catches real
	// regressions without flaking on noise.
	overhead, overheadLo float64
}

// workloadTimings is one engine workload's measured round set: the bare
// base first, then its decorated twins.
type workloadTimings struct {
	iters    int64
	variants []variant
}

// measureEngineMode measures every streaming workload several times over —
// bare, with a metrics registry attached ("+metrics"), and
// with barrier checkpointing armed but no consumer ("+ckpt") — so the
// decorated twins feed the -metrics-overhead and -ckpt-overhead gates
// proving observability and fault-tolerance arming cost nothing on the hot
// path.
func measureEngineMode(quick bool) ([]workloadTimings, error) {
	var sets []workloadTimings
	for _, w := range engineWorkloads(quick) {
		w := w
		prepare := func(extra func() []tpdf.Option) func() (func() error, error) {
			return func() (func() error, error) {
				g, behaviors, opts, err := w.build()
				if err != nil {
					return nil, err
				}
				opts = append(opts, tpdf.WithIterations(w.iters))
				if extra != nil {
					opts = append(opts, extra()...)
				}
				return func() error {
					_, err := tpdf.Stream(g, behaviors, opts...)
					return err
				}, nil
			}
		}
		variants := []variant{{name: w.name, prep: prepare(nil)}, {name: w.name + "+metrics", prep: prepare(func() []tpdf.Option {
			// A fresh registry per round, as a server session would hold.
			return []tpdf.Option{tpdf.WithMetrics(obs.NewRegistry())}
		})}}
		if !w.ckptArmed {
			variants = append(variants, variant{name: w.name + "+ckpt", prep: prepare(func() []tpdf.Option {
				// Checkpoint capture armed with no sink: the armed-but-idle
				// configuration every supervised serve session runs in
				// between faults.
				return []tpdf.Option{tpdf.WithCheckpoints(nil)}
			})})
		}
		if err := measureTimingSet(variants); err != nil {
			return nil, err
		}
		sets = append(sets, workloadTimings{iters: w.iters, variants: variants})
	}
	return sets, nil
}

// metricsSetupAllocs is the fixed allocation budget a decorated twin may
// spend per run outside the firing path: for "+metrics" the registry
// snapshot slices (sized once at the first harvest), the options
// themselves, and registry construction; for "+ckpt" the checkpoint arena
// (per-edge buffers sized once to ring capacities). Everything beyond it
// must amortize to ~zero per iteration.
const metricsSetupAllocs = 512

// metricsAllocsPerIter is the per-iteration allocation delta tolerated for
// a metrics-on run (matching the engine's 0-allocs-warm-path contract; the
// epsilon absorbs runtime bookkeeping such as GC assists).
const metricsAllocsPerIter = 0.01

// gateTwinOverhead compares every engine workload against one family of
// decorated twins ("+metrics", "+ckpt") from the same run: the decorated
// run may be at most tol slower in wall time (tol 0 disables the gate) —
// judged on the paired estimator's confidence lower bound, so only
// statistically significant overhead fails — and must not allocate per
// iteration beyond the fixed setup budget: the zero-overhead contract,
// enforced in CI.
func gateTwinOverhead(sets []workloadTimings, suffix, what string, tol float64) error {
	if tol <= 0 {
		return nil
	}
	var violations []string
	checked := 0
	fmt.Printf("%s overhead gate (<=%.1f%% ns/op, <=%.2f allocs/iteration beyond %d setup):\n",
		what, tol*100, metricsAllocsPerIter, metricsSetupAllocs)
	for _, set := range sets {
		off := set.variants[0]
		for _, on := range set.variants[1:] {
			if on.name != off.name+suffix {
				continue
			}
			checked++
			perIter := 0.0
			if extra := float64(on.allocs) - float64(off.allocs) - metricsSetupAllocs; extra > 0 {
				perIter = extra / float64(set.iters)
			}
			verdict := "ok"
			if on.overheadLo > tol {
				verdict = "TIME OVERHEAD"
				violations = append(violations, fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%% > %.1f%%)",
					off.name, off.ns, on.ns, on.overheadLo*100, tol*100))
			}
			if perIter > metricsAllocsPerIter {
				verdict = "ALLOC OVERHEAD"
				violations = append(violations, fmt.Sprintf("%s: %d -> %d allocs/op (%.3f allocs/iteration)",
					off.name, off.allocs, on.allocs, perIter))
			}
			fmt.Printf("  %-20s %12d -> %12d ns/op  %+6.1f%%  %8d -> %8d allocs  %s\n",
				off.name, off.ns, on.ns, on.overheadLo*100, off.allocs, on.allocs, verdict)
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s overhead gate matched no workload pairs", what)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%s overhead above budget on %d workload(s):\n  %s",
			what, len(violations), strings.Join(violations, "\n  "))
	}
	fmt.Printf("%s overhead within budget\n", what)
	return nil
}

// mallocs reads the process-wide cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeRound builds one fresh run closure (its cost stays outside the
// measured window) and times it, returning wall nanoseconds and the heap
// allocations the run performed. The forced collection levels GC debt, so
// a round never pays for the garbage of whatever ran before it.
func timeRound(prepare func() (func() error, error)) (int64, uint64, error) {
	run, err := prepare()
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	before := mallocs()
	start := time.Now()
	err = run()
	ns := time.Since(start).Nanoseconds()
	allocs := mallocs() - before
	return ns, allocs, err
}

// pairRounds is how many rounds a paired twin measurement takes. Twins
// exist to be compared against their base at a few-percent tolerance —
// far below scheduler noise on a shared runner — so they get many rounds
// (engine runs are milliseconds, the rounds are cheap) and every round
// runs all variants back to back so a noise burst (CPU contention, GC
// debt) lands on the whole round instead of skewing whichever variant
// owned that stretch of wall time.
const pairRounds = 41

// pairWarmup is how many leading rounds contribute no overhead ratio:
// the first rounds pay cold page-cache and scheduler ramp-up costs that
// land asymmetrically on whichever variant ran first, and a handful of
// discarded rounds is cheaper than letting that skew a 2% gate. The
// minimum-time estimate still considers every round.
const pairWarmup = 2

// measureTimingSet measures a base (variants[0]) and its decorated twins
// with interleaved rounds, filling in each variant's measurement. Each
// reports its single fastest round; every twin also carries overhead, the
// median of the per-round (twin-base)/base wall-time ratios — each ratio
// compares runs adjacent in time, so contention that slows the whole round
// cancels out of it, and the median discards rounds where a burst hit only
// one variant. The run order rotates every round so no variant
// systematically inherits the cache/scheduler state another left behind.
// A failed run of any variant fails the set.
func measureTimingSet(variants []variant) error {
	ratios := make([][]float64, len(variants)) // [0] stays empty: the base
	ns := make([]int64, len(variants))
	for round := 0; round < pairRounds; round++ {
		for k := range variants {
			idx := (round + k) % len(variants)
			v := &variants[idx]
			n, allocs, err := timeRound(v.prep)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if ns[idx] = n; round == 0 || n < v.ns {
				v.ns, v.allocs = n, allocs
			}
		}
		if round >= pairWarmup {
			for i := 1; i < len(variants); i++ {
				ratios[i] = append(ratios[i], float64(ns[i]-ns[0])/float64(ns[0]))
			}
		}
	}
	for i := 1; i < len(variants); i++ {
		med := medianOf(ratios[i])
		// Robust standard error of the median: 1.4826*MAD estimates the
		// ratio spread without letting burst rounds inflate it, and
		// 1.2533*sd/sqrt(n) is the median's sampling error. The gate
		// judges med - 1.645*se, the one-sided 95% lower bound.
		dev := make([]float64, len(ratios[i]))
		for j, r := range ratios[i] {
			dev[j] = math.Abs(r - med)
		}
		se := 1.2533 * 1.4826 * medianOf(dev) / math.Sqrt(float64(len(ratios[i])))
		variants[i].overhead, variants[i].overheadLo = med, med-1.645*se
	}
	for i, v := range variants {
		over := ""
		if i > 0 {
			over = fmt.Sprintf("   %+.1f%% paired (lo %+.1f%%)", v.overhead*100, v.overheadLo*100)
		}
		fmt.Printf("%-22s %12d ns/op %12d allocs/op%s\n", v.name, v.ns, v.allocs, over)
	}
	return nil
}

// medianOf returns the median; it sorts xs in place.
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (m + xs[len(xs)/2-1]) / 2
	}
	return m
}

func run() error {
	quick := flag.Bool("quick", false, "smaller image and sweeps")
	exp := flag.String("exp", "", "run one experiment: "+strings.Join(tpdf.ExperimentNames(), " "))
	parallel := flag.Int("parallel", 1, "worker pool width: run experiments side by side, shard the pixel kernels and the f8 grid")
	engineMode := flag.Bool("engine", false, "measure every streaming workload bare, +metrics and +ckpt in paired rounds instead of regenerating the paper artifacts")
	metricsOverhead := flag.Float64("metrics-overhead", 0, "engine mode: max relative slowdown of each workload's +metrics twin (0.02 = 2%; 0 disables the gate)")
	ckptOverhead := flag.Float64("ckpt-overhead", 0, "engine mode: max relative slowdown of each workload's checkpoint-armed +ckpt twin (0.02 = 2%; 0 disables the gate)")
	flag.Parse()

	if *engineMode {
		if *exp != "" {
			return errors.New("-exp is mutually exclusive with -engine")
		}
		sets, err := measureEngineMode(*quick)
		if err != nil {
			return err
		}
		if err := gateTwinOverhead(sets, "+metrics", "metrics", *metricsOverhead); err != nil {
			return err
		}
		return gateTwinOverhead(sets, "+ckpt", "checkpoint", *ckptOverhead)
	}
	var out string
	var err error
	if *exp != "" {
		out, err = tpdf.RunExperiment(*exp, *quick, tpdf.WithParallelism(*parallel))
	} else {
		out, err = tpdf.RunAllExperiments(*quick, tpdf.WithParallelism(*parallel))
	}
	fmt.Print(out)
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpdf-bench:", err)
		os.Exit(1)
	}
}
