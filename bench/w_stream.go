package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/tpdf"
)

// passthrough forwards one payload without allocating.
func passthrough(f *tpdf.Firing) error {
	f.Out["o0"] = append(f.Out["o0"], f.In["i0"][0])
	return nil
}

// streamJob is one graph a stream op pushes through tpdf.Stream: its text
// (set-up parses it), trivial behaviors with a counting sink, and the
// reference a tpdf.Execute run of the same graph produced.
type streamJob struct {
	name  string
	text  string
	iters int64
	// behaviors builds the job's behaviors around a sink-token counter.
	behaviors func(sunk *int64) map[string]tpdf.Behavior
	// wantFirings and wantSunk are tpdf.Execute's answer for iters
	// iterations at default parameters.
	wantFirings map[string]int64
	wantSunk    int64
}

// countingSink counts every token a sink consumes. One goroutine owns it
// during a run and the caller reads it after the run returned.
func countingSink(sunk *int64) tpdf.Behavior {
	return func(f *tpdf.Firing) error {
		for _, vals := range f.In {
			*sunk += int64(len(vals))
		}
		return nil
	}
}

// steadyJobs builds the three transport-bound graphs of stream-steady:
// the unit-rate 5-stage pipeline, a cyclo-static multirate chain and a
// 4-wide fan-out/fan-in. Behaviors do no work, so rings, park/wake and the
// firing context are the whole cost.
func steadyJobs(iters int64) ([]*streamJob, error) {
	pipe := tpdf.OFDMPayloadGraph()
	multirate, err := tpdf.NewGraph("multirate").
		Kernel("SRC", 1).Kernel("A", 1).Kernel("B", 1).Kernel("SNK", 1).
		Connect("SRC[4] -> A[3,1]").
		Connect("A[2] -> B[4]").
		Connect("B[3] -> SNK[1]").
		Build()
	if err != nil {
		return nil, err
	}
	fb := tpdf.NewGraph("fanout").Kernel("SRC", 1)
	for i := 0; i < 4; i++ {
		fb = fb.Kernel(fmt.Sprintf("W%d", i), 1)
	}
	fb = fb.Kernel("SNK", 1)
	for i := 0; i < 4; i++ {
		fb = fb.Connect(fmt.Sprintf("SRC[1] -> W%d[1]", i)).Connect(fmt.Sprintf("W%d[1] -> SNK[1]", i))
	}
	fanout, err := fb.Build()
	if err != nil {
		return nil, err
	}

	jobs := []*streamJob{
		{name: "pipe", text: tpdf.Format(pipe), iters: iters, behaviors: func(sunk *int64) map[string]tpdf.Behavior {
			return map[string]tpdf.Behavior{
				"SRC": func(f *tpdf.Firing) error { f.Out["o0"] = append(f.Out["o0"], 7); return nil },
				"RCP": passthrough, "FFT": passthrough, "QAM": passthrough,
				"SNK": countingSink(sunk),
			}
		}},
		{name: "multirate", text: tpdf.Format(multirate), iters: iters, behaviors: func(sunk *int64) map[string]tpdf.Behavior {
			return map[string]tpdf.Behavior{
				"SRC": func(f *tpdf.Firing) error { f.Out["o0"] = append(f.Out["o0"], 1, 2, 3, 4); return nil },
				"A":   func(f *tpdf.Firing) error { f.Out["o0"] = append(f.Out["o0"], 5, 6); return nil },
				"B":   func(f *tpdf.Firing) error { f.Out["o0"] = append(f.Out["o0"], 7, 8, 9); return nil },
				"SNK": countingSink(sunk),
			}
		}},
		{name: "fanout", text: tpdf.Format(fanout), iters: iters, behaviors: func(sunk *int64) map[string]tpdf.Behavior {
			b := map[string]tpdf.Behavior{
				"SRC": func(f *tpdf.Firing) error {
					for _, port := range [4]string{"o0", "o1", "o2", "o3"} {
						f.Out[port] = append(f.Out[port], 1)
					}
					return nil
				},
				"SNK": countingSink(sunk),
			}
			for i := 0; i < 4; i++ {
				b[fmt.Sprintf("W%d", i)] = passthrough
			}
			return b
		}},
	}
	for _, j := range jobs {
		if err := j.reference(); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// reference runs the job once through tpdf.Execute, the single-threaded
// tier, and keeps its firings and sink total as the expected output.
func (j *streamJob) reference() error {
	g, err := tpdf.Parse(j.text)
	if err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	var sunk int64
	res, err := tpdf.Execute(g, j.behaviors(&sunk), tpdf.WithIterations(j.iters))
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", j.name, err)
	}
	if len(res.Remaining) != 0 || sunk == 0 {
		return fmt.Errorf("%s: reference run left %d edges non-empty, sank %d tokens", j.name, len(res.Remaining), sunk)
	}
	j.wantFirings, j.wantSunk = res.Firings, sunk
	return nil
}

// readyJob is a streamJob after set-up: parsed, compiled, analyzed, and
// its engine spawned once to the first barrier and torn down.
type readyJob struct {
	job       *streamJob
	graph     *tpdf.Graph
	compiled  *tpdf.CompiledGraph
	sunk      int64
	behaviors map[string]tpdf.Behavior
}

// setupJob takes one job from graph text to ready.
func setupJob(tr *tracer, j *streamJob) (*readyJob, error) {
	sp := tr.begin("graphio.parse")
	g, err := tpdf.Parse(j.text)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.compile_skeleton")
	c, err := tpdf.Compile(g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("analysis.analyze")
	rep := tpdf.Analyze(g)
	tr.end(sp)
	if rep.Err != nil || !rep.Bounded {
		return nil, fmt.Errorf("%s: not admissible: bounded=%v err=%v", j.name, rep.Bounded, rep.Err)
	}
	r := &readyJob{job: j, graph: g, compiled: c}
	r.behaviors = j.behaviors(&r.sunk)
	// Spawn the engine to its first barrier and stop there: the cost of
	// having a pipeline ready, without running it.
	sp = tr.begin("engine.spawn")
	_, err = tpdf.Stream(g, r.behaviors, tpdf.WithCompiled(c),
		tpdf.WithBarrier(func(int64) (map[string]int64, bool) { return nil, true }))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// stream runs the job once through tpdf.Stream on its shared compile
// product, with the sink counter reset.
func (r *readyJob) stream(tr *tracer, opts ...tpdf.Option) (*tpdf.ExecResult, error) {
	r.sunk = 0
	sp := tr.begin("tpdf.stream")
	res, err := tpdf.Stream(r.graph, r.behaviors, append(opts, tpdf.WithCompiled(r.compiled))...)
	tr.end(sp)
	return res, err
}

// checkRun compares one finished run against the expected firings and
// sink total.
func checkRun(name string, res *tpdf.ExecResult, sunk int64, wantFirings map[string]int64, wantSunk int64) error {
	if sunk != wantSunk {
		return fmt.Errorf("%s: sink consumed %d tokens, reference %d", name, sunk, wantSunk)
	}
	if len(res.Remaining) != 0 {
		return fmt.Errorf("%s: %d edges left non-empty", name, len(res.Remaining))
	}
	if len(res.Firings) != len(wantFirings) {
		return fmt.Errorf("%s: %d nodes fired, reference %d", name, len(res.Firings), len(wantFirings))
	}
	for node, want := range wantFirings {
		if got := res.Firings[node]; got != want {
			return fmt.Errorf("%s: node %s fired %d times, reference %d", name, node, got, want)
		}
	}
	return nil
}

const steadyIters = 2048

func streamSteadyWorkload() workload {
	return workload{
		name: "stream-steady",
		why:  "steady transport: rings, park/wake and firing contexts do all the work, boundaries and serve none",
		prepare: func(seed int64) (*plan, error) {
			jobs, err := steadyJobs(steadyIters)
			if err != nil {
				return nil, err
			}
			var names []string
			for _, j := range jobs {
				names = append(names, j.name)
			}
			key := fmt.Sprintf("stream %s x%d", strings.Join(names, "+"), steadyIters)
			return &plan{
				opKey: func(int) string { return key },
				setup: func(tr *tracer) (*live, error) {
					ready := make([]*readyJob, len(jobs))
					for i, j := range jobs {
						r, err := setupJob(tr, j)
						if err != nil {
							return nil, err
						}
						ready[i] = r
					}
					return &live{
						op: func(tr *tracer, _ int) error {
							for _, r := range ready {
								res, err := r.stream(tr, tpdf.WithIterations(r.job.iters))
								if err != nil {
									return err
								}
								if err := checkRun(r.job.name, res, r.sunk, r.job.wantFirings, r.job.wantSunk); err != nil {
									return err
								}
							}
							return nil
						},
						teardown: func() error { return nil },
					}, nil
				},
			}, nil
		},
	}
}

// Mode workload constants: 256 iterations a run, a pool of walks so that
// every seed visits the three modes in the same proportion over a run.
const (
	modesIters = 256
	modesWalks = 16
)

var modeValues = [3]int64{2, 4, 8}

// modesGraph is the 4-stage pipeline whose sink rate p is rebound at
// every boundary: SRC bursts 32 tokens, SNK consumes p per firing, so a
// change of p changes the repetition vector and the schedule, never the
// token total.
func modesGraph() (*tpdf.Graph, error) {
	return tpdf.NewGraph("modes").
		Param("p", 2, 1, 8).
		Kernel("SRC", 1).Kernel("A", 1).Kernel("B", 1).Kernel("SNK", 1).
		Connect("SRC[32] -> A[1]").
		Connect("A[1] -> B[1]").
		Connect("B[1] -> SNK[p]").
		Build()
}

func modesBehaviors(sunk *int64) map[string]tpdf.Behavior {
	return map[string]tpdf.Behavior{
		"SRC": func(f *tpdf.Firing) error {
			for i := 0; i < 32; i++ {
				f.Out["o0"] = append(f.Out["o0"], i)
			}
			return nil
		},
		"A": passthrough, "B": passthrough,
		"SNK": countingSink(sunk),
	}
}

// modeWalk draws n mode indices with no immediate repeat: every boundary
// of the run changes p.
func modeWalk(rng *rand.Rand, n int) []uint8 {
	walk := make([]uint8, n)
	cur := rng.Intn(len(modeValues))
	for i := range walk {
		walk[i] = uint8(cur)
		cur = (cur + 1 + rng.Intn(len(modeValues)-1)) % len(modeValues)
	}
	return walk
}

func streamModesWorkload() workload {
	return workload{
		name: "stream-modes",
		why:  "p changes at every boundary: rebind, schedule rebuild and ring growth dominate, steady transport is the minority",
		prepare: func(seed int64) (*plan, error) {
			g, err := modesGraph()
			if err != nil {
				return nil, err
			}
			job := &streamJob{name: "modes", text: tpdf.Format(g), iters: modesIters, behaviors: modesBehaviors}
			// The reference is one tpdf.Execute iteration per mode: the
			// graph returns to its initial state each iteration, so a walk's
			// firings are the sum over its iterations.
			var perMode [len(modeValues)]map[string]int64
			var sunkPerIter int64
			for m, p := range modeValues {
				var sunk int64
				res, err := tpdf.Execute(g, modesBehaviors(&sunk), tpdf.WithParam("p", p))
				if err != nil {
					return nil, fmt.Errorf("modes: reference run p=%d: %w", p, err)
				}
				if len(res.Remaining) != 0 {
					return nil, fmt.Errorf("modes: reference run p=%d does not return to the initial state", p)
				}
				perMode[m], sunkPerIter = res.Firings, sunk
			}
			rng := rand.New(rand.NewSource(seed))
			walks := make([][]uint8, modesWalks)
			want := make([]map[string]int64, modesWalks)
			keys := make([]string, modesWalks)
			for w := range walks {
				walks[w] = modeWalk(rng, modesIters)
				want[w] = map[string]int64{}
				var sb strings.Builder
				for _, m := range walks[w] {
					for node, n := range perMode[m] {
						want[w][node] += n
					}
					sb.WriteByte('0' + byte(modeValues[m]))
				}
				keys[w] = "stream modes walk " + sb.String()
			}
			return &plan{
				opKey: func(n int) string { return keys[n%modesWalks] },
				setup: func(tr *tracer) (*live, error) {
					r, err := setupJob(tr, job)
					if err != nil {
						return nil, err
					}
					// One params map per mode, built once: the hook hands the
					// engine a ready map, as a controller would.
					var params [len(modeValues)]map[string]int64
					for m, p := range modeValues {
						params[m] = map[string]int64{"p": p}
					}
					return &live{
						op: func(tr *tracer, n int) error {
							walk := walks[n%modesWalks]
							res, err := r.stream(tr, tpdf.WithIterations(modesIters),
								tpdf.WithParams(params[walk[0]]),
								tpdf.WithReconfigure(func(completed int64) map[string]int64 { return params[walk[completed]] }))
							if err != nil {
								return err
							}
							return checkRun("modes", res, r.sunk, want[n%modesWalks], sunkPerIter*modesIters)
						},
						teardown: func() error { return nil },
					}, nil
				},
			}, nil
		},
	}
}
