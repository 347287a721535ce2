package tpdf_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/sinkrec"
	"repro/tpdf"
	"repro/tpdf/obs"
)

// cycleParams builds a deterministic reconfigure plan over the graph's
// bounded parameters: at every even boundary it proposes the next value in
// a short cycle through each parameter's declared range. Returns nil when
// the graph has no bounded parameters (the hook then never proposes a
// change and rebind faults have no site to fire at).
func cycleParams(g *tpdf.Graph) func(completed int64) map[string]int64 {
	type pRange struct {
		name     string
		min, max int64
	}
	var params []pRange
	for _, p := range g.Params {
		if p.Min > 0 && p.Max > p.Min {
			max := p.Max
			if max > p.Min+2 {
				max = p.Min + 2
			}
			params = append(params, pRange{p.Name, p.Min, max})
		}
	}
	if len(params) == 0 {
		return nil
	}
	return func(completed int64) map[string]int64 {
		if completed == 0 || completed%2 != 0 {
			return nil
		}
		out := make(map[string]int64, len(params))
		for _, p := range params {
			out[p.name] = p.min + (completed/2)%(p.max-p.min+1)
		}
		return out
	}
}

// faultSchedule builds the per-builtin seeded schedule: nPanics behavior
// panics at distinct sink firing sites, plus — when the builtin can rebind
// at all — one injected rebind abort. The rebind-abort half is returned
// separately so the reference run can share it: an aborted rebind changes
// the parameter trajectory, so it must abort in both runs for the outputs
// to be comparable; the panics are the recovered difference under test.
func faultSchedule(seed int64, sinks []string, canRebind bool, iters int64) (panics, rebinds []faultinject.Fault) {
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	for len(panics) < 2 {
		node := sinks[rng.Intn(len(sinks))]
		k := rng.Int63n(iters) // every sink fires >= once per iteration
		site := fmt.Sprintf("%s/%d", node, k)
		if used[site] {
			continue
		}
		used[site] = true
		panics = append(panics, faultinject.Fault{Kind: faultinject.KindPanic, Node: node, K: k})
	}
	if canRebind {
		rebinds = append(rebinds, faultinject.Fault{Kind: faultinject.KindRebindAbort, K: 2 + rng.Int63n(iters/2)})
	}
	return panics, rebinds
}

// TestBuiltinDifferentialRecovery runs every builtin twice under the same
// deterministic reconfigure plan and rebind-abort schedule: once fault-free
// (the reference) and once with seeded behavior panics recovered by
// checkpoint rollback. The recovered run must be byte-identical to the
// reference — same Firings, same Remaining payloads, same per-sink
// observation sequences — proving aborted transactions leave no trace.
func TestBuiltinDifferentialRecovery(t *testing.T) {
	const iters = 12
	for _, name := range tpdf.BuiltinNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := tpdf.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			sinks := gen.SinkNodes(g)
			if len(sinks) == 0 {
				t.Fatalf("builtin %s has no sink nodes", name)
			}
			reconf := cycleParams(g)
			panics, rebinds := faultSchedule(int64(0x5EED)+int64(len(name)), sinks, reconf != nil, iters)

			run := func(withPanics bool) (*tpdf.ExecResult, map[string][]int64, error) {
				rec := sinkrec.New(sinks)
				faults := rebinds
				if withPanics {
					faults = append(append([]faultinject.Fault(nil), panics...), rebinds...)
				}
				opts := []tpdf.Option{
					tpdf.WithIterations(iters),
					tpdf.WithUserState(rec.Snapshot, rec.Restore),
					tpdf.WithFaultPlan(faultinject.New(faults...)),
					tpdf.WithRebindAbortHandler(func(error) {}),
				}
				if reconf != nil {
					opts = append(opts, tpdf.WithReconfigure(reconf))
				}
				if withPanics {
					opts = append(opts, tpdf.WithPanicRecovery(len(panics)+1))
				} else {
					opts = append(opts, tpdf.WithCheckpoints(nil))
				}
				res, err := tpdf.Stream(g, rec.Behaviors(), opts...)
				return res, rec.Seq(), err
			}

			wantRes, wantSeq, err := run(false)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			gotRes, gotSeq, err := run(true)
			if err != nil {
				t.Fatalf("recovered run: %v", err)
			}
			if !reflect.DeepEqual(gotRes.Firings, wantRes.Firings) {
				t.Errorf("firings diverged:\n got %v\nwant %v", gotRes.Firings, wantRes.Firings)
			}
			if !reflect.DeepEqual(gotRes.Remaining, wantRes.Remaining) {
				t.Errorf("remaining tokens diverged:\n got %v\nwant %v", gotRes.Remaining, wantRes.Remaining)
			}
			if !reflect.DeepEqual(gotSeq, wantSeq) {
				t.Errorf("sink sequences diverged:\n got %v\nwant %v", gotSeq, wantSeq)
			}
		})
	}
}

// TestBuiltinCrashRestartResume exercises the external recovery path on
// every builtin: a first run is stopped at a mid-point checkpoint (as a
// crashed process's supervisor would hold one), a second run resumes from
// it, and the stitched execution must be byte-identical to one
// uninterrupted run — including across rebind boundaries, since the
// reconfigure plan is a pure function of the completed count.
func TestBuiltinCrashRestartResume(t *testing.T) {
	const iters, stopAt = 12, 5
	for _, name := range tpdf.BuiltinNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := tpdf.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			sinks := gen.SinkNodes(g)
			reconf := cycleParams(g)
			opts := func(rec *sinkrec.Recorder, extra ...tpdf.Option) []tpdf.Option {
				o := []tpdf.Option{tpdf.WithUserState(rec.Snapshot, rec.Restore)}
				if reconf != nil {
					o = append(o, tpdf.WithReconfigure(reconf))
				}
				return append(o, extra...)
			}

			refRec := sinkrec.New(sinks)
			wantRes, err := tpdf.Stream(g, refRec.Behaviors(),
				opts(refRec, tpdf.WithIterations(iters))...)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			// First leg: keep the checkpoint captured at stopAt.
			var saved *tpdf.Checkpoint
			legRec := sinkrec.New(sinks)
			if _, err := tpdf.Stream(g, legRec.Behaviors(),
				opts(legRec,
					tpdf.WithIterations(stopAt),
					tpdf.WithCheckpoints(func(ck *tpdf.Checkpoint) {
						if ck.Completed == stopAt {
							saved = ck.Clone()
						}
					}))...); err != nil {
				t.Fatalf("first leg: %v", err)
			}
			if saved == nil {
				t.Fatalf("no checkpoint captured at %d", stopAt)
			}

			// Second leg: a fresh recorder (a restarted process's empty
			// state); WithResume rehydrates it from the checkpoint's User.
			resRec := sinkrec.New(sinks)
			gotRes, err := tpdf.Stream(g, resRec.Behaviors(),
				opts(resRec, tpdf.WithIterations(iters), tpdf.WithResume(saved))...)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !reflect.DeepEqual(gotRes.Firings, wantRes.Firings) {
				t.Errorf("firings diverged:\n got %v\nwant %v", gotRes.Firings, wantRes.Firings)
			}
			if !reflect.DeepEqual(gotRes.Remaining, wantRes.Remaining) {
				t.Errorf("remaining tokens diverged:\n got %v\nwant %v", gotRes.Remaining, wantRes.Remaining)
			}
			if !reflect.DeepEqual(resRec.Seq(), refRec.Seq()) {
				t.Errorf("sink sequences diverged:\n got %v\nwant %v", resRec.Seq(), refRec.Seq())
			}
		})
	}
}

// TestRebindValidationFacade checks the tpdf-level rebind-abort surface: a
// rebind refused at the boundary (here an injected KindRebindAbort at the
// first parameter change) aborts with ErrRebindAborted — fatal without a
// handler, absorbed with one.
func TestRebindValidationFacade(t *testing.T) {
	g, err := tpdf.Builtin("ofdm")
	if err != nil {
		t.Fatal(err)
	}
	sinks := gen.SinkNodes(g)
	reconf := cycleParams(g)
	if reconf == nil {
		t.Fatal("ofdm should have bounded params")
	}
	refuseFirst := func() tpdf.Option {
		return tpdf.WithFaultPlan(faultinject.New(faultinject.Fault{Kind: faultinject.KindRebindAbort}))
	}

	rec := sinkrec.New(sinks)
	_, err = tpdf.Stream(g, rec.Behaviors(),
		tpdf.WithIterations(8),
		tpdf.WithReconfigure(reconf),
		refuseFirst())
	if !errors.Is(err, tpdf.ErrRebindAborted) {
		t.Fatalf("want ErrRebindAborted, got %v", err)
	}

	var aborts int
	rec = sinkrec.New(sinks)
	if _, err := tpdf.Stream(g, rec.Behaviors(),
		tpdf.WithIterations(8),
		tpdf.WithReconfigure(reconf),
		refuseFirst(),
		tpdf.WithRebindAbortHandler(func(err error) {
			if !errors.Is(err, tpdf.ErrRebindAborted) {
				t.Errorf("handler got %v", err)
			}
			aborts++
		})); err != nil {
		t.Fatalf("run with abort handler: %v", err)
	}
	if aborts != 1 {
		t.Fatalf("%d aborts, want the one injected", aborts)
	}
}

// recoveryPipeline is SRC -> A -> B -> SNK at unit rates with payload
// behaviors: SRC emits its firing index, A and B transform it, SNK appends
// to *seq. aHook, when non-nil, runs first in A's every firing.
func recoveryPipeline(t *testing.T, seq *[]int, aHook func(k int64)) (*tpdf.Graph, map[string]tpdf.Behavior) {
	t.Helper()
	g, err := tpdf.NewGraph("pipe").
		Kernel("SRC", 1).Kernel("A", 1).Kernel("B", 1).Kernel("SNK", 1).
		Connect("SRC[1] -> A[1]").Connect("A[1] -> B[1]").Connect("B[1] -> SNK[1]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, map[string]tpdf.Behavior{
		"SRC": func(f *tpdf.Firing) error {
			f.Produce("o0", int(f.K))
			return nil
		},
		"A": func(f *tpdf.Firing) error {
			if aHook != nil {
				aHook(f.K)
			}
			f.Produce("o0", f.In["i0"][0].(int)*10)
			return nil
		},
		"B": func(f *tpdf.Firing) error {
			f.Produce("o0", f.In["i0"][0].(int)+1)
			return nil
		},
		"SNK": func(f *tpdf.Firing) error {
			*seq = append(*seq, f.In["i0"][0].(int))
			return nil
		},
	}
}

// TestPanicRecoveryByteIdentical injects two behavior panics into a payload
// pipeline whose sink output travels with the checkpoints (WithUserState):
// the recovered run's firings and payload stream must equal the fault-free
// run's, and both aborts and both restarts must be recorded.
func TestPanicRecoveryByteIdentical(t *testing.T) {
	const iters = 10
	run := func(faults *faultinject.Plan, retries int) ([]int, *tpdf.ExecResult, *obs.Registry) {
		var seq []int
		g, behaviors := recoveryPipeline(t, &seq, nil)
		jr := obs.NewRegistry()
		res, err := tpdf.Stream(g, behaviors,
			tpdf.WithIterations(iters),
			tpdf.WithReconfigure(func(int64) map[string]int64 { return nil }),
			tpdf.WithUserState(
				func() any { return append([]int(nil), seq...) },
				func(u any) { seq = append(seq[:0], u.([]int)...) }),
			tpdf.WithPanicRecovery(retries),
			tpdf.WithFaultPlan(faults),
			tpdf.WithMetrics(jr))
		if err != nil {
			t.Fatal(err)
		}
		return seq, res, jr
	}

	wantSeq, want, _ := run(nil, 0)
	faults := faultinject.New(
		faultinject.Fault{Kind: faultinject.KindPanic, Node: "A", K: 6},
		faultinject.Fault{Kind: faultinject.KindPanic, Node: "SNK", K: 8},
	)
	gotSeq, got, jr := run(faults, 2)
	if faults.Pending() != 0 {
		t.Fatalf("%d faults never fired", faults.Pending())
	}
	if !reflect.DeepEqual(got.Firings, want.Firings) {
		t.Errorf("firings: recovered %v, fault-free %v", got.Firings, want.Firings)
	}
	if !reflect.DeepEqual(gotSeq, wantSeq) {
		t.Errorf("payload streams differ:\nrecovered  %v\nfault-free %v", gotSeq, wantSeq)
	}
	kinds := map[obs.EventKind]int{}
	for _, ev := range jr.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvAbort] != 2 || kinds[obs.EvRestore] != 2 {
		t.Errorf("registry has %d abort / %d restore records, want 2/2", kinds[obs.EvAbort], kinds[obs.EvRestore])
	}
}

// TestPanicRecoveryBudgetExhausted replays a deterministic panic: every
// restart hits it again, so the budget must bound the loop — 1 + n hits,
// the structured error, and a registry reading n + 1 aborts, n restores.
func TestPanicRecoveryBudgetExhausted(t *testing.T) {
	const retries = 2
	hits := 0
	g, behaviors := recoveryPipeline(t, new([]int), func(k int64) {
		if k == 3 {
			hits++
			panic("always")
		}
	})
	mx := obs.NewRegistry()
	_, err := tpdf.Stream(g, behaviors,
		tpdf.WithIterations(50),
		tpdf.WithReconfigure(func(int64) map[string]int64 { return nil }),
		tpdf.WithPanicRecovery(retries),
		tpdf.WithMetrics(mx))
	var pe *tpdf.BehaviorPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *BehaviorPanicError", err)
	}
	if pe.Node != "A" || pe.Firing != 3 {
		t.Errorf("panic located at %s firing %d, want A firing 3", pe.Node, pe.Firing)
	}
	if hits != 1+retries {
		t.Errorf("behavior hit %d times, want %d (1 + %d restarts)", hits, 1+retries, retries)
	}
	if snap := mx.EngineSnapshot(); snap.Aborts != retries+1 || snap.Restores != retries {
		t.Errorf("metrics aborts=%d restores=%d, want %d/%d", snap.Aborts, snap.Restores, retries+1, retries)
	}
}

// TestPanicRecoveryThenCancel cancels the run's context from inside the
// firing that then panics: whichever of the two the engine records first,
// Stream must not restart a cancelled run — it ends with context.Canceled
// or the panic error, never a hang and never success.
func TestPanicRecoveryThenCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, behaviors := recoveryPipeline(t, new([]int), func(k int64) {
		if k == 3 {
			cancel()
			panic("boom")
		}
	})
	_, err := tpdf.Stream(g, behaviors,
		tpdf.WithContext(ctx),
		tpdf.WithIterations(1000),
		tpdf.WithReconfigure(func(int64) map[string]int64 { return nil }),
		tpdf.WithPanicRecovery(100))
	var pe *tpdf.BehaviorPanicError
	if !errors.Is(err, context.Canceled) && !errors.As(err, &pe) {
		t.Fatalf("got %v, want context.Canceled or *BehaviorPanicError", err)
	}
}

// TestPanicRecoveryStatefulHook is the supervisor half of the one-cut rule
// (the successor of the engine's TestBoundaryResumeReplaysVerdict): a cut
// holds no verdict and a restarted engine asks at the cut's boundary again,
// so Stream's WithPanicRecovery loop remembers the verdict. The hook here
// hands out rebinds from a queue — whatever count it is consulted at — so it
// is right only if it is consulted exactly once per boundary. A panic in the
// epoch right after a consulted boundary, with and without a rebind abort
// injected at that boundary, must equal the fault-free run: a refused rebind
// is part of what the boundary did and must not be proposed again.
func TestPanicRecoveryStatefulHook(t *testing.T) {
	g, err := tpdf.Builtin("fig2")
	if err != nil {
		t.Fatal(err)
	}
	sinks := gen.SinkNodes(g)
	queue := []tpdf.Verdict{
		{Params: map[string]int64{"p": 3}, Run: 2},
		{Params: map[string]int64{"p": 5}, Run: 3}, // boundary 2: the poisoned one
		{Run: 1},
		{Params: map[string]int64{"p": 2}, Run: 2},
		{Params: map[string]int64{"p": 4}, Run: 4},
	}
	const iters, poisoned, poisonedAt = 12, 1, 2
	boundaries := []int64{0, 2, 5, 6, 8}

	type outcome struct {
		res       *tpdf.ExecResult
		seq       map[string][]int64
		consulted []int64
		aborts    int
	}
	run := func(panics, abort bool) outcome {
		var o outcome
		rec := sinkrec.New(sinks)
		behaviors := rec.Behaviors()
		poison := false
		record := behaviors[sinks[0]]
		behaviors[sinks[0]] = func(f *tpdf.Firing) error {
			if poison {
				poison = false
				panic("transient")
			}
			return record(f)
		}
		next := 0
		var faults []faultinject.Fault
		if abort {
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindRebindAbort, K: poisonedAt})
		}
		opts := []tpdf.Option{
			tpdf.WithIterations(iters),
			tpdf.WithUserState(rec.Snapshot, rec.Restore),
			tpdf.WithFaultPlan(faultinject.New(faults...)),
			tpdf.WithRebindAbortHandler(func(error) { o.aborts++ }),
			tpdf.WithBoundary(func(completed int64) tpdf.Verdict {
				o.consulted = append(o.consulted, completed)
				poison = panics && next == poisoned
				next++
				return queue[next-1]
			}),
		}
		mx := obs.NewRegistry()
		if panics {
			opts = append(opts, tpdf.WithPanicRecovery(1), tpdf.WithMetrics(mx))
		} else {
			opts = append(opts, tpdf.WithCheckpoints(nil))
		}
		if o.res, err = tpdf.Stream(g, behaviors, opts...); err != nil {
			t.Fatalf("panics=%v abort=%v: %v", panics, abort, err)
		}
		if panics && mx.EngineSnapshot().Restores != 1 {
			t.Errorf("abort=%v: %d restores, want 1 (the panic never fired?)", abort, mx.EngineSnapshot().Restores)
		}
		o.seq = rec.Seq()
		return o
	}

	for _, abort := range []bool{false, true} {
		want, got := run(false, abort), run(true, abort)
		if !reflect.DeepEqual(got.res, want.res) || !reflect.DeepEqual(got.seq, want.seq) {
			t.Errorf("abort=%v: recovered run diverged:\n got %v %v\nwant %v %v", abort, got.res, got.seq, want.res, want.seq)
		}
		if !reflect.DeepEqual(got.consulted, boundaries) || !reflect.DeepEqual(want.consulted, boundaries) {
			t.Errorf("abort=%v: hook consulted at %v (recovered) / %v (fault-free), want once at each of %v",
				abort, got.consulted, want.consulted, boundaries)
		}
		if wantAborts := map[bool]int{true: 1}[abort]; got.aborts != wantAborts || want.aborts != wantAborts {
			t.Errorf("abort=%v: %d (recovered) / %d (fault-free) rebind aborts, want %d", abort, got.aborts, want.aborts, wantAborts)
		}
	}
	// The two trajectories differ, or the abort leg checks nothing.
	if a, b := run(false, false), run(false, true); reflect.DeepEqual(a.res.Firings, b.res.Firings) {
		t.Error("the injected abort does not change the run; the abort leg is vacuous")
	}
}
