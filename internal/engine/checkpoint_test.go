package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// ckRun is one fault-tolerant pipeline run: sink payload sequence travels
// with the checkpoint via SnapshotUser/RestoreUser, so rolled-back or
// resumed runs keep exactly-once output.
type ckRun struct {
	seq   []int
	saved *Checkpoint
}

func (c *ckRun) snapshot() any { return append([]int(nil), c.seq...) }
func (c *ckRun) restore(u any) {
	if u == nil {
		c.seq = c.seq[:0]
		return
	}
	c.seq = append(c.seq[:0], u.([]int)...)
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	g := pipeline(t)
	const iters = 12
	const captureAt = 5

	run := func(resume *Checkpoint) (*ckRun, map[string]int64, map[string][]any, error) {
		c := &ckRun{}
		cfg := Config{
			Graph:        g,
			Behaviors:    pipelineBehaviors(&c.seq),
			Iterations:   iters,
			Resume:       resume,
			SnapshotUser: c.snapshot,
			RestoreUser:  c.restore,
			CheckpointSink: func(ck *Checkpoint) {
				if ck.Completed == captureAt && c.saved == nil {
					c.saved = ck.Clone()
				}
			},
			// A barrier hook forces per-iteration boundaries so a capture
			// exists at captureAt.
			Reconfigure: func(int64) map[string]int64 { return nil },
		}
		res, err := Run(cfg)
		if err != nil {
			return c, nil, nil, err
		}
		return c, res.Firings, res.Remaining, nil
	}

	ref, refFirings, refRemaining, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.saved == nil {
		t.Fatalf("no checkpoint captured at iteration %d", captureAt)
	}
	if ref.saved.Completed != captureAt || ref.saved.Graph != "pipe" {
		t.Fatalf("checkpoint = {%s, %d}, want {pipe, %d}", ref.saved.Graph, ref.saved.Completed, captureAt)
	}

	res, gotFirings, gotRemaining, err := run(ref.saved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFirings, refFirings) {
		t.Errorf("firings: resumed %v, uninterrupted %v", gotFirings, refFirings)
	}
	if !reflect.DeepEqual(gotRemaining, refRemaining) {
		t.Errorf("remaining: resumed %v, uninterrupted %v", gotRemaining, refRemaining)
	}
	if !reflect.DeepEqual(res.seq, ref.seq) {
		t.Errorf("payload streams differ:\nresumed       %v\nuninterrupted %v", res.seq, ref.seq)
	}
}

// TestCheckpointResumeAcrossRebinds resumes from a checkpoint taken
// between two parameter changes: the cut at k carries the valuation *before*
// k's hook, and the restored valuation (the checkpoint's Params) and the
// rate-phase base must both survive, or the tail diverges.
func TestCheckpointResumeAcrossRebinds(t *testing.T) {
	g := reconfGraph(t)
	plan := []int64{2, 5, 5, 3, 4, 4, 2, 6}
	const captureAt = 4 // after iteration 3 ran at p=3, before hook(4) asks for p=4

	run := func(resume *Checkpoint) ([][2]int, *Checkpoint, error) {
		var observed [][2]int
		var saved *Checkpoint
		res, err := Run(Config{
			Graph: g,
			Env:   symb.Env{"p": plan[0]},
			Behaviors: map[string]runner.Behavior{
				"B": func(f *runner.Firing) error {
					observed = append(observed, [2]int{len(f.In["i0"]), len(f.In["i1"])})
					return nil
				},
			},
			Iterations: int64(len(plan)),
			Resume:     resume,
			Reconfigure: func(completed int64) map[string]int64 {
				return map[string]int64{"p": plan[completed]}
			},
			SnapshotUser: func() any { return append([][2]int(nil), observed...) },
			RestoreUser: func(u any) {
				observed = observed[:0]
				if u != nil {
					observed = append(observed, u.([][2]int)...)
				}
			},
			CheckpointSink: func(ck *Checkpoint) {
				if ck.Completed == captureAt && saved == nil {
					saved = ck.Clone()
				}
			},
		})
		if err != nil {
			return nil, nil, err
		}
		if got := res.Firings["B"]; got != int64(len(plan)) {
			return nil, nil, fmt.Errorf("B fired %d times, want %d", got, len(plan))
		}
		return observed, saved, nil
	}

	ref, saved, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if saved == nil {
		t.Fatal("no checkpoint captured")
	}
	if saved.Params["p"] != plan[captureAt-1] {
		t.Fatalf("checkpoint p = %d, want the pre-hook %d", saved.Params["p"], plan[captureAt-1])
	}
	got, _, err := run(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("observed rates differ:\nresumed       %v\nuninterrupted %v", got, ref)
	}
}

// reconfGraph is the two-parallel-edge parametric graph of
// TestReconfigureAtTransactionBoundaries.
func reconfGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph("reconf")
	g.AddParam("p", 2, 1, 8)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	if _, err := g.Connect(a, "[p]", b, "[p]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, "[p]", b, "[p]", 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPanicWithoutRetriesReturnsStructuredError(t *testing.T) {
	g := pipeline(t)
	behaviors := pipelineBehaviors(new([]int))
	behaviors["A"] = func(f *runner.Firing) error {
		if f.K == 3 {
			panic("kaboom")
		}
		f.Produce("o0", f.In["i0"][0].(int)*10)
		return nil
	}
	_, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: 50})
	var pe *BehaviorPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v (%T), want *BehaviorPanicError", err, err)
	}
	if pe.Node != "A" || pe.Firing != 3 {
		t.Errorf("panic located at %s firing %d, want A firing 3", pe.Node, pe.Firing)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("panic error carries no stack")
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %q does not carry the panic value", err)
	}
}

// TestResumeContinuesRegistryCounters pins the one recovery path's
// observability contract: a run ended by a behavior panic and resumed from
// its newest cut into the same Registry keeps every counter
// monotone, counts the abort and the restore exactly once each, and ends
// with per-actor Firings equal to Result.Firings — the aborted epoch's
// firings are not part of the recovered state.
func TestResumeContinuesRegistryCounters(t *testing.T) {
	g := reconfGraph(t)
	plan := []int64{2, 5, 3, 6, 4, 7, 2, 8} // growing p grows the rings
	mx := obs.NewRegistry()
	newest := &Checkpoint{}
	poisoned := true
	cfg := Config{
		Graph: g,
		Env:   symb.Env{"p": plan[0]},
		Behaviors: map[string]runner.Behavior{
			"B": func(f *runner.Firing) error {
				if poisoned && f.K == 5 {
					poisoned = false
					panic("transient")
				}
				return nil
			},
		},
		Iterations: int64(len(plan)),
		Reconfigure: func(completed int64) map[string]int64 {
			return map[string]int64{"p": plan[completed]}
		},
		CheckpointSink: func(ck *Checkpoint) { ck.CopyInto(newest) },
		Metrics:        mx,
	}
	_, err := Run(cfg)
	var pe *BehaviorPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("first leg: got %v, want *BehaviorPanicError", err)
	}
	if newest.Completed != 5 {
		t.Fatalf("newest cut at %d, want 5 (the poisoned epoch's opening barrier)", newest.Completed)
	}
	before := mx.EngineSnapshot()
	if before.Aborts != 1 || before.Restores != 0 {
		t.Fatalf("after the panic: aborts=%d restores=%d, want 1/0", before.Aborts, before.Restores)
	}

	cfg.Resume = newest
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("resumed leg: %v", err)
	}
	after := mx.EngineSnapshot()
	if after.Aborts != 1 || after.Restores != 1 {
		t.Errorf("after the resume: aborts=%d restores=%d, want 1/1", after.Aborts, after.Restores)
	}
	for _, c := range []struct {
		name          string
		before, after int64
	}{
		{"Barriers", before.Barriers, after.Barriers},
		{"Rebinds", before.Rebinds, after.Rebinds},
		{"RebindNs", before.RebindNs, after.RebindNs},
		{"BoundaryNs", before.BoundaryNs, after.BoundaryNs},
	} {
		if c.after < c.before {
			t.Errorf("%s went backwards across the resume: %d -> %d", c.name, c.before, c.after)
		}
	}
	// 8 completed epochs plus the aborted one; one rebind per boundary 1..7
	// and one more for boundary 5, which the resumed run crosses again (its
	// rebind is not part of the cut).
	if after.Barriers != 9 || after.Rebinds != 8 {
		t.Errorf("barriers=%d rebinds=%d, want 9/8", after.Barriers, after.Rebinds)
	}
	grew := false
	for ci, ed := range after.Edges {
		if ed.Grows < before.Edges[ci].Grows {
			t.Errorf("edge %s grows went backwards: %d -> %d", ed.Name, before.Edges[ci].Grows, ed.Grows)
		}
		grew = grew || before.Edges[ci].Grows > 0
	}
	if !grew {
		t.Error("no ring grew before the panic; the plan no longer exercises Grows continuity")
	}
	for _, a := range after.Actors {
		if a.Firings != res.Firings[a.Name] {
			t.Errorf("actor %s: metrics say %d firings, Result says %d", a.Name, a.Firings, res.Firings[a.Name])
		}
	}
	kinds := map[obs.EventKind]int{}
	for _, ev := range mx.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvAbort] != 1 || kinds[obs.EvRestore] != 1 {
		t.Errorf("registry has %d abort / %d restore records, want 1/1", kinds[obs.EvAbort], kinds[obs.EvRestore])
	}
}

// TestPanicErrorLeavesNoGoroutines checks the teardown of a run that ends
// on a behavior panic: actors, watchdog and context watcher all exit once
// Run has returned the error.
func TestPanicErrorLeavesNoGoroutines(t *testing.T) {
	g := pipeline(t)
	baseline := runtime.NumGoroutine()
	behaviors := pipelineBehaviors(new([]int))
	behaviors["B"] = func(f *runner.Firing) error { panic("boom") }
	_, err := Run(Config{Graph: g, Context: context.Background(), Behaviors: behaviors, Iterations: 50})
	var pe *BehaviorPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *BehaviorPanicError", err)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines fails the test unless the goroutine count comes back down
// to baseline: a Run's goroutines exit shortly after it returned.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRebindAbortValidation: a rebind refused at its boundary (an injected
// KindRebindAbort at completed=1) ends the run without a handler and is
// absorbed with one, the iteration running under the committed valuation.
func TestRebindAbortValidation(t *testing.T) {
	g := reconfGraph(t)
	plan := []int64{2, 7, 3, 4} // p=7, at completed=1, will be rejected
	refuse := func() *faultinject.Plan {
		return faultinject.New(faultinject.Fault{Kind: faultinject.KindRebindAbort, K: 1})
	}

	t.Run("fatal without handler", func(t *testing.T) {
		_, err := Run(Config{
			Graph: g, Env: symb.Env{"p": plan[0]}, Iterations: int64(len(plan)),
			Reconfigure: func(completed int64) map[string]int64 {
				return map[string]int64{"p": plan[completed]}
			},
			Faults: refuse(),
		})
		if !errors.Is(err, ErrRebindAborted) {
			t.Fatalf("got %v, want ErrRebindAborted", err)
		}
	})

	t.Run("continues with handler", func(t *testing.T) {
		var observed []int
		var abortErrs []error
		res, err := Run(Config{
			Graph: g, Env: symb.Env{"p": plan[0]}, Iterations: int64(len(plan)),
			Behaviors: map[string]runner.Behavior{
				"B": func(f *runner.Firing) error {
					observed = append(observed, len(f.In["i0"]))
					return nil
				},
			},
			Reconfigure: func(completed int64) map[string]int64 {
				return map[string]int64{"p": plan[completed]}
			},
			Faults:        refuse(),
			OnRebindAbort: func(err error) { abortErrs = append(abortErrs, err) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(abortErrs) != 1 || !errors.Is(abortErrs[0], ErrRebindAborted) {
			t.Fatalf("abort handler got %v, want one ErrRebindAborted", abortErrs)
		}
		if res.Firings["B"] != int64(len(plan)) {
			t.Fatalf("B fired %d times, want %d", res.Firings["B"], len(plan))
		}
		// Iteration 1 runs under the *old* p=2 because p=7 was aborted;
		// later boundaries rebind normally.
		want := []int{2, 2, 3, 4}
		if !reflect.DeepEqual(observed, want) {
			t.Errorf("observed rates %v, want %v", observed, want)
		}
	})
}

func TestRebindAbortInjected(t *testing.T) {
	g := reconfGraph(t)
	plan := []int64{2, 3, 4, 5}
	faults := faultinject.New(faultinject.Fault{Kind: faultinject.KindRebindAbort, K: 2})
	var observed []int
	var aborts int
	_, err := Run(Config{
		Graph: g, Env: symb.Env{"p": plan[0]}, Iterations: int64(len(plan)),
		Behaviors: map[string]runner.Behavior{
			"B": func(f *runner.Firing) error {
				observed = append(observed, len(f.In["i0"]))
				return nil
			},
		},
		Reconfigure: func(completed int64) map[string]int64 {
			return map[string]int64{"p": plan[completed]}
		},
		OnRebindAbort: func(error) { aborts++ },
		Faults:        faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if aborts != 1 {
		t.Fatalf("%d aborts, want 1", aborts)
	}
	// The K=2 fault rejects the p=4 rebind at completed=2: iteration 2 runs
	// under the previous p=3; the p=5 rebind at completed=3 succeeds.
	want := []int{2, 3, 3, 5}
	if !reflect.DeepEqual(observed, want) {
		t.Errorf("observed rates %v, want %v", observed, want)
	}
}

func TestResumeValidation(t *testing.T) {
	g := pipeline(t)
	var saved *Checkpoint
	_, err := Run(Config{
		Graph: g, Behaviors: pipelineBehaviors(new([]int)), Iterations: 4,
		Reconfigure:    func(int64) map[string]int64 { return nil },
		CheckpointSink: func(ck *Checkpoint) { saved = ck.Clone() },
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := saved.Clone()
	bad.Graph = "other"
	if _, err := Run(Config{Graph: g, Iterations: 8, Resume: bad}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Errorf("mismatched graph name accepted: %v", err)
	}
	bad2 := saved.Clone()
	bad2.Nodes[0] = "ZZZ"
	if _, err := Run(Config{Graph: g, Iterations: 8, Resume: bad2}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Errorf("mismatched node accepted: %v", err)
	}
	bad3 := saved.Clone()
	bad3.Completed = 100
	if _, err := Run(Config{Graph: g, Iterations: 8, Resume: bad3}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Errorf("overshot checkpoint accepted: %v", err)
	}
}

// TestEntryCaptureResumeByteIdentical pins the one-cut contract durable
// persistence depends on: a cut is taken before the boundary's hook runs,
// so at the moment a Barrier hook acknowledges completed work the cut
// already covers every acknowledged iteration — and resuming from it must
// re-invoke that boundary's hook (the hook's effects are not part of the
// cut) and then replay the tail byte-identically.
func TestEntryCaptureResumeByteIdentical(t *testing.T) {
	g := reconfGraph(t)
	plan := []int64{2, 5, 3, 4, 6, 2, 3, 5}
	const captureAt = 4 // the cut at the p=6 boundary, before its rebind

	run := func(resume *Checkpoint) ([]int, []int64, *Checkpoint, error) {
		var observed []int
		var hookAt []int64
		var saved *Checkpoint
		_, err := Run(Config{
			Graph: g,
			Env:   symb.Env{"p": plan[0]},
			Behaviors: map[string]runner.Behavior{
				"B": func(f *runner.Firing) error {
					observed = append(observed, len(f.In["i0"]))
					return nil
				},
			},
			Iterations: int64(len(plan)),
			Resume:     resume,
			Reconfigure: func(completed int64) map[string]int64 {
				hookAt = append(hookAt, completed)
				return map[string]int64{"p": plan[completed]}
			},
			SnapshotUser: func() any { return append([]int(nil), observed...) },
			RestoreUser: func(u any) {
				observed = observed[:0]
				if u != nil {
					observed = append(observed, u.([]int)...)
				}
			},
			CheckpointSink: func(ck *Checkpoint) {
				if ck.Completed == captureAt && saved == nil {
					saved = ck.Clone()
				}
			},
		})
		return observed, hookAt, saved, err
	}

	ref, refHooks, saved, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if saved == nil {
		t.Fatalf("no cut at %d", captureAt)
	}
	// The cut precedes the boundary's rebind: it still holds the
	// previous valuation, and the interrupted prefix never saw hook(4).
	if saved.Params["p"] != plan[captureAt-1] {
		t.Fatalf("cut p = %d, want pre-rebind %d", saved.Params["p"], plan[captureAt-1])
	}

	got, gotHooks, _, err := run(saved)
	if err != nil {
		t.Fatal(err)
	}
	// Resume re-invokes the boundary's hook: the resumed run starts its
	// hook sequence at captureAt, exactly where the reference run's hook
	// for that boundary fired.
	if len(gotHooks) == 0 || gotHooks[0] != captureAt {
		t.Fatalf("resumed hook calls %v, want to start at %d", gotHooks, captureAt)
	}
	if want := refHooks[captureAt-1:]; !reflect.DeepEqual(gotHooks, want) {
		t.Errorf("resumed hook sequence %v, want %v", gotHooks, want)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("observed rates differ:\nresumed       %v\nuninterrupted %v", got, ref)
	}
}

// TestEntryCaptureCoversAckedWork is the ack-ordering guarantee: when the
// Barrier hook observes `completed` iterations, a cut with that
// Completed count has already been handed to the sink — so a service that
// flushes the newest cut before acknowledging a pump can never
// ack work that no durable cut covers.
func TestEntryCaptureCoversAckedWork(t *testing.T) {
	g := pipeline(t)
	var newestEntry int64 = -1
	_, err := Run(Config{
		Graph: g, Behaviors: pipelineBehaviors(new([]int)), Iterations: 6,
		CheckpointSink: func(ck *Checkpoint) { newestEntry = ck.Completed },
		Reconfigure: func(completed int64) map[string]int64 {
			if newestEntry < completed {
				t.Errorf("hook saw completed=%d but newest cut is %d", completed, newestEntry)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if newestEntry != 6 {
		t.Errorf("final cut at %d, want 6 (run end is a cut too)", newestEntry)
	}
}
