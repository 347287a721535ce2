package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/graphio"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/symb"
	"repro/tpdf"
	"repro/tpdf/obs"
	"repro/tpdf/serve"
)

// ladder measures the per-layer rungs: each is one call into a layer's
// public function, repeated inside spans the tracer records, and reported
// as the median span. The rungs are the same whatever workload the traced
// run was asked for; the inputs they run on are fixed and named in
// README.md. Rungs check errors only: outputs are checked by the workload
// sections.
type ladder struct {
	tr   *tracer
	sh   shape
	seed int64
	m    map[string]metric
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{Value: v, Unit: unit} }

// maxCalls caps the calls of one rung, so that a microsecond rung cannot
// fill the span buffer.
const maxCalls = 2000

// timed calls fn inside a span and returns the span's duration in
// nanoseconds.
func (l *ladder) timed(span string, fn func() error) (float64, error) {
	sp := l.tr.begin(span)
	err := fn()
	d := l.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", span, err)
	}
	if sp < 0 {
		return 0, fmt.Errorf("%s: span buffer full", span)
	}
	return float64(d), nil
}

// sample repeats fn inside spans for units × ladderUnit (within the call
// limits) and returns the span durations in nanoseconds.
func (l *ladder) sample(span string, units int, fn func() error) ([]float64, error) {
	budget := time.Duration(units) * l.sh.ladderUnit
	var durs []float64
	phase := time.Now()
	for len(durs) < l.sh.minCalls || (time.Since(phase) < budget && len(durs) < maxCalls) {
		d, err := l.timed(span, fn)
		if err != nil {
			return nil, err
		}
		durs = append(durs, d)
	}
	return durs, nil
}

// samplePair is sample for two functions called alternately, so that
// drift lands on both equally.
func (l *ladder) samplePair(spanA, spanB string, units int, a, b func() error) (da, db []float64, err error) {
	budget := time.Duration(units) * l.sh.ladderUnit
	phase := time.Now()
	for len(da) < l.sh.minCalls || (time.Since(phase) < budget && len(da) < maxCalls) {
		x, err := l.timed(spanA, a)
		if err != nil {
			return nil, nil, err
		}
		y, err := l.timed(spanB, b)
		if err != nil {
			return nil, nil, err
		}
		da, db = append(da, x), append(db, y)
	}
	return da, db, nil
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// frontEndRungs times the compile pipeline on the ofdm built-in, the
// largest of the paper's graphs: the rungs every set-up pays.
func (l *ladder) frontEndRungs() error {
	g, err := tpdf.Builtin("ofdm")
	if err != nil {
		return err
	}
	text := tpdf.Format(g)
	d, err := l.sample("graphio.parse", 1, func() error { _, err := graphio.Parse(text); return err })
	if err != nil {
		return err
	}
	l.set("graphio.parse_us", median(d)/1e3, "us")

	var sk *core.Skeleton
	d, err = l.sample("core.compile_skeleton", 1, func() (err error) { sk, err = core.CompileSkeleton(g); return err })
	if err != nil {
		return err
	}
	l.set("core.compile_skeleton_us", median(d)/1e3, "us")

	var prog *core.Program
	d, _ = l.sample("core.stamp", 1, func() error { prog = sk.NewProgram(); return nil })
	l.set("core.stamp_us", median(d)/1e3, "us")

	d, err = l.sample("analysis.analyze", 2, func() error { return tpdf.Analyze(g).Err })
	if err != nil {
		return err
	}
	l.set("analysis.analyze_us", median(d)/1e3, "us")

	// Warm rebinds alternate two valuations so that every call changes the
	// rate tables.
	envs := [2]symb.Env{{"beta": 10, "M": 4, "N": 512, "L": 1}, {"beta": 7, "M": 4, "N": 256, "L": 16}}
	n := 0
	d, err = l.sample("core.rebind", 1, func() error { n++; return prog.Rebind(envs[n&1]) })
	if err != nil {
		return err
	}
	l.set("core.rebind_us", median(d)/1e3, "us")

	// One compiled rate expression of the ofdm graph, evaluated in batches
	// of 1000 so that the clock reads do not dominate.
	pi := symb.NewParamIndex([]string{"beta", "M", "N", "L"})
	ce, err := symb.MustParseExpr("beta*(N+L)").Compile(pi)
	if err != nil {
		return err
	}
	vals := []int64{10, 4, 512, 1}
	var sink int64
	d, err = l.sample("symb.eval_x1000", 1, func() error {
		for i := 0; i < 1000; i++ {
			if err := ce.EvalIntInto(&sink, vals); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("symb.eval_ns", median(d)/1000, "ns")
	return nil
}

// analysisRungs times the back half of the analysis op's layers.
func (l *ladder) analysisRungs() error {
	mg, err := modesGraph()
	if err != nil {
		return err
	}
	prog, err := core.Compile(mg)
	if err != nil {
		return err
	}
	if err := prog.Rebind(symb.Env{"p": 4}); err != nil {
		return err
	}
	// The schedule rebuild engine.reconfigure pays at a changed boundary.
	d, err := l.sample("csdf.build_schedule", 1, func() error {
		_, err := prog.Concrete().BuildSchedule(prog.Solution(), csdf.Demand)
		return err
	})
	if err != nil {
		return err
	}
	l.set("csdf.build_schedule_us", median(d)/1e3, "us")

	ofdm, err := tpdf.BuiltinScenario("ofdm", nil)
	if err != nil {
		return err
	}
	ap, err := newAnalysisPlan(l.seed)
	if err != nil {
		return err
	}
	d, err = l.sample("sim.sweep", 2, func() error {
		_, err := tpdf.Sweep(ofdm.Graph, ap.grid, tpdf.WithDecisions(ofdm.Decide))
		return err
	})
	if err != nil {
		return err
	}
	l.set("sim.run_us_per_point", median(d)/1e3/float64(len(ap.grid)), "us")

	betas, ns := sweepBetas[:2], sweepNs[:2]
	d, err = l.sample("buffer.ofdm_sweep", 2, func() error { _, err := buffer.OFDMSweep(betas, ns, 4, 1); return err })
	if err != nil {
		return err
	}
	l.set("buffer.sweep_us_per_point", median(d)/1e3/float64(len(betas)*len(ns)), "us")

	// List scheduling alone, on a canonical period built once: fig2 at
	// p=16, 88 firings.
	fig2, err := tpdf.Builtin("fig2")
	if err != nil {
		return err
	}
	cg, low, err := fig2.Instantiate(symb.Env{"p": 16})
	if err != nil {
		return err
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		return err
	}
	prec, err := cg.BuildPrecedence(sol, true)
	if err != nil {
		return err
	}
	isCtl := make([]bool, len(cg.Actors))
	for id, n := range fig2.Nodes {
		if n.Kind == core.KindControl {
			isCtl[low.ActorOf[id]] = true
		}
	}
	opts := sched.Options{Platform: platform.Simple(4), ControlPriority: true, IsControl: isCtl}
	d, err = l.sample("sched.list_schedule", 1, func() error { _, err := sched.ListSchedule(cg, prec, opts); return err })
	if err != nil {
		return err
	}
	l.set("sched.list_schedule_us", median(d)/1e3, "us")
	return nil
}

// engineJob is a stream job wired for direct engine.Run calls.
type engineJob struct {
	r  *readyJob
	sk *core.Skeleton
}

func (j *engineJob) config() engine.Config {
	return engine.Config{Skeleton: j.sk, Behaviors: j.r.behaviors, Iterations: j.r.job.iters}
}

func newEngineJob(j *streamJob) (*engineJob, error) {
	r, err := setupJob(nil, j)
	if err != nil {
		return nil, err
	}
	sk, err := core.CompileSkeleton(r.graph)
	if err != nil {
		return nil, err
	}
	return &engineJob{r: r, sk: sk}, nil
}

func stopAtFirstBarrier(int64) (map[string]int64, bool) { return nil, true }

// engineRungs times the transport on the three stream-steady graphs: a
// metered engine.Run per graph for the normalised units, the spawn cost,
// the facade's share, the single-threaded tier and the one-core run.
func (l *ladder) engineRungs() error {
	jobs, err := steadyJobs(l.sh.ladderIters)
	if err != nil {
		return err
	}
	var ej []*engineJob
	for _, j := range jobs {
		e, err := newEngineJob(j)
		if err != nil {
			return err
		}
		ej = append(ej, e)
	}

	var ns, firings, tokens, parks, wakes, grows, iters float64
	for _, e := range ej {
		var reg *obs.Registry
		d, err := l.sample("engine.run."+e.r.job.name, 2, func() error {
			reg = obs.NewRegistry()
			cfg := e.config()
			cfg.Metrics = reg
			_, err := engine.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		ns += median(d)
		iters += float64(e.r.job.iters)
		snap := reg.EngineSnapshot()
		for _, a := range snap.Actors {
			firings += float64(a.Firings)
			tokens += float64(a.TokensOut)
			parks += float64(a.Parks)
			wakes += float64(a.Wakes)
		}
		for _, ed := range snap.Edges {
			grows += float64(ed.Grows)
		}
	}
	l.set("engine.ns_per_firing", ns/firings, "ns")
	l.set("engine.ns_per_token", ns/tokens, "ns")
	l.set("engine.parks_per_iter", parks/iters, "count")
	l.set("engine.wakes_per_iter", wakes/iters, "count")
	l.set("engine.ring_grows", grows, "count")

	// Spawn: a run stopped at its first barrier, through the engine and
	// through the facade; the difference is what tpdf.Stream adds.
	pipe := ej[0]
	dEng, dFac, err := l.samplePair("engine.spawn", "tpdf.stream_spawn", 2,
		func() error {
			cfg := pipe.config()
			cfg.Barrier = stopAtFirstBarrier
			_, err := engine.Run(cfg)
			return err
		},
		func() error {
			_, err := tpdf.Stream(pipe.r.graph, pipe.r.behaviors, tpdf.WithCompiled(pipe.r.compiled), tpdf.WithBarrier(stopAtFirstBarrier))
			return err
		})
	if err != nil {
		return err
	}
	l.set("engine.spawn_us", median(dEng)/1e3, "us")
	l.set("tpdf.stream_overhead_us", (median(dFac)-median(dEng))/1e3, "us")

	// The single-threaded run of the same jobs.
	ns, firings = 0, 0
	for _, e := range ej {
		var res *tpdf.ExecResult
		d, err := l.sample("runner.execute."+e.r.job.name, 2, func() (err error) {
			res, err = tpdf.Execute(e.r.graph, e.r.behaviors, tpdf.WithIterations(e.r.job.iters))
			return err
		})
		if err != nil {
			return err
		}
		ns += median(d)
		for _, n := range res.Firings {
			firings += float64(n)
		}
	}
	l.set("runner.ns_per_firing", ns/firings, "ns")

	// The stream-steady op on one core and on two, back to back.
	steadyOp := func() error {
		for _, e := range ej {
			if _, err := engine.Run(e.config()); err != nil {
				return err
			}
		}
		return nil
	}
	procs := runtime.GOMAXPROCS(1)
	d1, err := l.sample("engine.steady_op_p1", 6, steadyOp)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	d2, err := l.sample("engine.steady_op_p2", 6, steadyOp)
	if err != nil {
		return err
	}
	l.set("engine.p1_ops_per_s", 1e9/median(d1), "1/s")
	l.set("engine.p2_over_p1", median(d1)/median(d2), "ratio")
	return nil
}

// Boundary-rung graph: the modes pipeline with p held fixed, plus two
// auxiliary edges whose rates are the parameters a and b. Changing a or b
// is a changed boundary (rebind, schedule rebuild, ring check) that leaves
// the firing count alone, so a run that changes them at every boundary
// does the same firings as one that changes nothing, and the difference
// is the boundary.
const auxRange = 64

func boundaryGraph() (*tpdf.Graph, error) {
	return tpdf.NewGraph("boundary").
		Param("a", 1, 1, auxRange).Param("b", 1, 1, auxRange).
		Kernel("SRC", 1).Kernel("A", 1).Kernel("B", 1).Kernel("SNK", 1).Kernel("AUX", 1).
		Connect("SRC[32] -> A[1]").
		Connect("A[1] -> B[1]").
		Connect("B[1] -> SNK[2]").
		Connect("SRC[a] -> AUX[a]").
		Connect("SRC[b] -> AUX[b]").
		Build()
}

// boundaryRungs isolates what a transaction boundary costs: steady (hook
// consulted, nothing changes), changed and revisited (three valuations
// cycled), changed and fresh (no valuation seen twice in the process),
// and the checkpoint captures a durable session adds.
func (l *ladder) boundaryRungs() error {
	g, err := boundaryGraph()
	if err != nil {
		return err
	}
	sk, err := core.CompileSkeleton(g)
	if err != nil {
		return err
	}
	iters := l.sh.boundaryIters
	base := func() engine.Config {
		return engine.Config{Skeleton: sk, Iterations: iters}
	}
	run := func(cfg engine.Config) func() error {
		return func() error { _, err := engine.Run(cfg); return err }
	}
	noop := func(int64) (map[string]int64, bool) { return nil, false }

	plain := base()
	steady := base()
	steady.Barrier = noop
	dPlain, dSteady, err := l.samplePair("engine.run_one_epoch", "engine.run_steady_barriers", 3, run(plain), run(steady))
	if err != nil {
		return err
	}
	l.set("engine.steady_barrier_ns", (median(dSteady)-median(dPlain))/float64(iters), "ns")

	var cycle [3]map[string]int64
	for i := range cycle {
		cycle[i] = map[string]int64{"a": int64(i + 1)}
	}
	revisit := base()
	revisit.Reconfigure = func(completed int64) map[string]int64 { return cycle[completed%3] }
	dSteady2, dRevisit, err := l.samplePair("engine.run_steady_barriers", "engine.run_revisit", 3, run(steady), run(revisit))
	if err != nil {
		return err
	}
	changed := float64(iters - 1)
	l.set("engine.changed_boundary_us_revisit", (median(dRevisit)-median(dSteady2))/changed/1e3, "us")

	m0 := mallocCount()
	if err := run(steady)(); err != nil {
		return err
	}
	m1 := mallocCount()
	if err := run(revisit)(); err != nil {
		return err
	}
	m2 := mallocCount()
	l.set("engine.allocs_per_changed_boundary", (float64(m2-m1)-float64(m1-m0))/changed, "count")

	// Fresh valuations: a seeded permutation of the a×b square, consumed
	// once. The rung is bounded by the square, not by time.
	rng := rand.New(rand.NewSource(l.seed))
	square := rng.Perm(auxRange * auxRange)
	next := 0
	fresh := base()
	fresh.Reconfigure = func(int64) map[string]int64 {
		v := square[next%len(square)]
		next++
		return map[string]int64{"a": int64(v/auxRange + 1), "b": int64(v%auxRange + 1)}
	}
	var dFresh, dSteady3 []float64
	for next+int(changed) <= len(square) && len(dFresh) < 12 {
		a, err := l.timed("engine.run_steady_barriers", run(steady))
		if err != nil {
			return err
		}
		b, err := l.timed("engine.run_fresh", run(fresh))
		if err != nil {
			return err
		}
		dSteady3, dFresh = append(dSteady3, a), append(dFresh, b)
	}
	l.set("engine.changed_boundary_us_fresh", (median(dFresh)-median(dSteady3))/changed/1e3, "us")

	// Captures as a durable session arms them: an entry cut and a
	// post-hook cut at every boundary, each copied out by the sink.
	held := &engine.Checkpoint{}
	captured := base()
	captured.Barrier = noop
	captured.CaptureAtEntry = true
	captured.CheckpointSink = func(ck *engine.Checkpoint) { ck.CopyInto(held) }
	dSteady4, dCapture, err := l.samplePair("engine.run_steady_barriers", "engine.run_captures", 3, run(steady), run(captured))
	if err != nil {
		return err
	}
	l.set("engine.capture_ns", (median(dCapture)-median(dSteady4))/float64(iters), "ns")
	enc, err := durable.Encode(nil, &durable.Snapshot{Checkpoint: held})
	if err != nil {
		return err
	}
	l.set("engine.capture_bytes", float64(len(enc)), "B")
	return nil
}

// ladderFleet is a fleet plus direct handles on its sessions.
type ladderFleet struct {
	*fleet
	sess []*serve.Session
}

func openLadderFleet(fp *fleetPlan, dataDir string) (*ladderFleet, error) {
	f, err := openFleet(nil, fp, dataDir)
	if err != nil {
		return nil, err
	}
	lf := &ladderFleet{fleet: f}
	for _, id := range f.ids {
		s, err := f.srv.Manager().Get(id)
		if err != nil {
			f.close() //nolint:errcheck // reporting the lookup failure
			return nil, err
		}
		lf.sess = append(lf.sess, s)
	}
	return lf, nil
}

// roundRobin returns a function that calls fn on the next session slot
// each time, in the plan's seeded order.
func (lf *ladderFleet) roundRobin(fn func(slot int) error) func() error {
	n := 0
	return func() error {
		slot := lf.plan.order[n%len(lf.plan.order)]
		n++
		return fn(slot)
	}
}

func (lf *ladderFleet) directPump(iters int64) func() error {
	ctx := context.Background()
	return lf.roundRobin(func(slot int) error {
		_, err := lf.sess[slot].Pump(ctx, iters, nil)
		return err
	})
}

func (lf *ladderFleet) handlerPump() func() error {
	return lf.roundRobin(func(slot int) error {
		_, err := lf.cl.pump(slot)
		return err
	})
}

// clientsRate runs n closed-loop clients on disjoint shares of the fleet
// for the given time and returns acks per second.
func (lf *ladderFleet) clientsRate(n int, dur time.Duration) (float64, error) {
	var wg sync.WaitGroup
	counts := make([]int, n)
	errs := make([]error, n)
	t0 := time.Now()
	for c := 0; c < n; c++ {
		var slots []int
		for s := c; s < len(lf.ids); s += n {
			slots = append(slots, s)
		}
		ids := make([]string, len(slots))
		for i, s := range slots {
			ids[i] = lf.ids[s]
		}
		cl, err := newClient(lf.srv.Handler(), ids...)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(t0) < dur; i++ {
				if _, err := cl.pump(i % len(ids)); err != nil {
					errs[c] = err
					return
				}
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	total := 0
	for c := range counts {
		if errs[c] != nil {
			return 0, errs[c]
		}
		total += counts[c]
	}
	return float64(total) / elapsed, nil
}

// serveRungs decomposes one pump from the outside in: handler op, direct
// Session.Pump at three sizes, the persist path, and what is left over.
func (l *ladder) serveRungs() error {
	fp, err := newFleetPlan(l.seed)
	if err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	plain, err := openLadderFleet(fp, "")
	if err != nil {
		return err
	}
	defer plain.close() //nolint:errcheck // rung errors are reported first
	// One pump each, so that every engine is parked at a barrier with warm
	// rings before the heap is read.
	for slot := range plain.sess {
		if _, err := plain.cl.pump(slot); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	l.set("proc.live_heap_kb_per_session", (float64(ms.HeapAlloc)-float64(heap0))/1024/float64(len(plain.sess)), "KiB")

	dHandler, dDirect, err := l.samplePair("serve.handler_pump", "serve.session_pump_x8", 4, plain.handlerPump(), plain.directPump(pumpIters))
	if err != nil {
		return err
	}
	handlerUs, directUs := median(dHandler)/1e3, median(dDirect)/1e3
	l.set("serve.http_us_per_pump", handlerUs-directUs, "us")

	sizes := []float64{1, pumpIters, 64}
	costs := []float64{0, directUs, 0}
	for _, i := range []int{0, 2} {
		d, err := l.sample(fmt.Sprintf("serve.session_pump_x%d", int(sizes[i])), 2, plain.directPump(int64(sizes[i])))
		if err != nil {
			return err
		}
		costs[i] = median(d) / 1e3
	}
	fixed, perIter := fitLine(sizes, costs)
	l.set("serve.pump_fixed_us", fixed, "us")
	l.set("serve.pump_per_iter_us", perIter, "us")
	// What the rungs above do not explain of the handler op: the handler
	// op is its HTTP share plus a direct pump, and a direct pump of 8 is
	// the fitted line at 8 plus this remainder.
	l.set("serve.unexplained_us", directUs-(fixed+pumpIters*perIter), "us")

	d, _ := l.sample("serve.sink_tokens", 1, plain.roundRobin(func(slot int) error { plain.sess[slot].SinkTokens(); return nil }))
	l.set("serve.sink_tokens_us", median(d)/1e3, "us")

	scrape, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	d, err = l.sample("obs.metrics_scrape", 2, func() error {
		if status, _ := plain.cl.do(scrape); status != http.StatusOK {
			return fmt.Errorf("GET /metrics: HTTP %d", status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("obs.metrics_scrape_us", median(d)/1e3, "us")

	// Session open and close on a warm program cache.
	fig2, err := tpdf.Builtin("fig2")
	if err != nil {
		return err
	}
	mgr := plain.srv.Manager()
	ctx := context.Background()
	var opened *serve.Session
	dOpen, dClose, err := l.samplePair("serve.open", "serve.close", 2,
		func() (err error) { opened, err = mgr.Open(ctx, "", fig2, nil, nil); return err },
		func() error { _, err := mgr.Close(ctx, opened.ID); return err })
	if err != nil {
		return err
	}
	l.set("serve.open_us", median(dOpen)/1e3, "us")
	l.set("serve.close_us", median(dClose)/1e3, "us")

	cache := serve.NewProgramCache(0)
	if _, _, err := cache.Get(fig2); err != nil {
		return err
	}
	d, err = l.sample("serve.cache_hit", 1, func() error { _, _, err := cache.Get(fig2); return err })
	if err != nil {
		return err
	}
	l.set("serve.cache_hit_us", median(d)/1e3, "us")

	c1, err := plain.clientsRate(1, 6*l.sh.ladderUnit)
	if err != nil {
		return err
	}
	c2, err := plain.clientsRate(2, 6*l.sh.ladderUnit)
	if err != nil {
		return err
	}
	l.set("serve.c2_ops_per_s", c2, "1/s")
	l.set("serve.c2_over_c1", c2/c1, "ratio")
	return l.durableRungs(fp, plain)
}

// durableRungs times the persist path against the plain fleet and then
// each of its parts on snapshots the durable fleet wrote.
func (l *ladder) durableRungs(fp *fleetPlan, plain *ladderFleet) error {
	root, _ := durableRoot()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "tpdf-bench-ladder-")
	if err != nil {
		return err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dur, err := openLadderFleet(fp, filepath.Join(dir, "fleet"))
	if err != nil {
		return err
	}
	defer dur.close() //nolint:errcheck // rung errors are reported first

	before := dur.srv.Manager().Stats().Durable
	dPlain, dDurable, err := l.samplePair("serve.session_pump_x8", "durable.session_pump_x8", 4, plain.directPump(pumpIters), dur.directPump(pumpIters))
	if err != nil {
		return err
	}
	after := dur.srv.Manager().Stats().Durable
	acks := float64(len(dDurable))
	l.set("durable.persist_us_per_ack", (median(dDurable)-median(dPlain))/1e3, "us")
	l.set("durable.snapshots_per_ack", float64(after.Snapshots-before.Snapshots)/acks, "count")
	l.set("durable.bytes_per_ack", float64(after.Bytes-before.Bytes)/acks, "B")

	// Allocations per durable ack depend on how many background persists
	// the writer coalesces, which is why they are a layer number and not
	// held to a bound.
	pump := dur.directPump(pumpIters)
	m0 := mallocCount()
	for i := 0; i < 10*len(dur.sess); i++ {
		if err := pump(); err != nil {
			return err
		}
	}
	l.set("durable.allocs_per_ack", float64(mallocCount()-m0)/float64(10*len(dur.sess)), "count")

	c1, err := dur.clientsRate(1, 6*l.sh.ladderUnit)
	if err != nil {
		return err
	}
	c2, err := dur.clientsRate(2, 6*l.sh.ladderUnit)
	if err != nil {
		return err
	}
	l.set("durable.c2_ops_per_s", c2, "1/s")
	l.set("durable.c2_over_c1", c2/c1, "ratio")

	// The parts, on the snapshots the fleet just wrote.
	st, err := durable.Open(dur.dataDir, 3)
	if err != nil {
		return err
	}
	var snaps []*durable.Snapshot
	var encoded [][]byte
	var bytes, textBytes float64
	for _, id := range dur.ids {
		snap, _, err := st.LoadNewest(id)
		if err != nil {
			return err
		}
		enc, err := durable.Encode(nil, snap)
		if err != nil {
			return err
		}
		snaps, encoded = append(snaps, snap), append(encoded, enc)
		bytes += float64(len(enc))
		textBytes += float64(len(snap.GraphText))
	}
	l.set("durable.snapshot_bytes", bytes/float64(len(snaps)), "B")
	l.set("durable.graph_text_share", textBytes/bytes, "ratio")

	var buf []byte
	n := 0
	d, err := l.sample("durable.encode", 1, func() (err error) {
		n++
		buf, err = durable.Encode(buf[:0], snaps[n%len(snaps)])
		return err
	})
	if err != nil {
		return err
	}
	l.set("durable.encode_us", median(d)/1e3, "us")

	d, err = l.sample("durable.decode", 1, func() error {
		n++
		_, err := durable.Decode(encoded[n%len(encoded)])
		return err
	})
	if err != nil {
		return err
	}
	l.set("durable.decode_us", median(d)/1e3, "us")

	probe, err := durable.Open(filepath.Join(dir, "probe"), 3)
	if err != nil {
		return err
	}
	ss, err := probe.Session("probe")
	if err != nil {
		return err
	}
	d, err = l.sample("durable.store_write", 2, func() error {
		n++
		_, err := ss.Write(encoded[n%len(encoded)])
		return err
	})
	if err != nil {
		return err
	}
	l.set("durable.store_write_us", median(d)/1e3, "us")

	// Offer alone: a cadence no run reaches keeps the background writer
	// asleep, so the rung is the double-buffer copy.
	w := durable.NewWriter(ss, "probe", "default", snaps[0].GraphText, 1<<30, nil)
	d, _ = l.sample("durable.offer_x100", 1, func() error {
		for i := 0; i < 100; i++ {
			w.Offer(snaps[0].Checkpoint)
		}
		return nil
	})
	if err := w.Close(); err != nil {
		return err
	}
	l.set("durable.offer_ns", median(d)/100, "ns")
	return nil
}

// runLadder measures every workload-independent rung.
func runLadder(tr *tracer, sh shape, seed int64) (map[string]metric, error) {
	l := &ladder{tr: tr, sh: sh, seed: seed, m: map[string]metric{}}
	for _, group := range []struct {
		name string
		run  func() error
	}{
		{"front end", l.frontEndRungs},
		{"analysis", l.analysisRungs},
		{"engine", l.engineRungs},
		{"boundary", l.boundaryRungs},
		{"serve", l.serveRungs},
	} {
		tr.setOp(-1)
		t0 := time.Now()
		if err := group.run(); err != nil {
			return nil, fmt.Errorf("ladder: %s rungs: %w", group.name, err)
		}
		logf("ladder: %s rungs took %.2f s", group.name, time.Since(t0).Seconds())
	}
	return l.m, nil
}
