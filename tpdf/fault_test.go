package tpdf_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/sinkrec"
	"repro/tpdf"
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

// TestRebindValidationFacade checks the tpdf-level speculative-rebind
// surface: a validation predicate rejecting a valuation aborts the rebind
// with ErrRebindAborted (fatal without a handler, absorbed with one).
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
	reject := func(params map[string]int64) error {
		return errors.New("rejected by policy")
	}

	rec := sinkrec.New(sinks)
	_, err = tpdf.Stream(g, rec.Behaviors(),
		tpdf.WithIterations(8),
		tpdf.WithReconfigure(reconf),
		tpdf.WithRebindValidation(reject))
	if !errors.Is(err, tpdf.ErrRebindAborted) {
		t.Fatalf("want ErrRebindAborted, got %v", err)
	}

	var aborts int
	rec = sinkrec.New(sinks)
	if _, err := tpdf.Stream(g, rec.Behaviors(),
		tpdf.WithIterations(8),
		tpdf.WithReconfigure(reconf),
		tpdf.WithRebindValidation(reject),
		tpdf.WithRebindAbortHandler(func(err error) {
			if !errors.Is(err, tpdf.ErrRebindAborted) {
				t.Errorf("handler got %v", err)
			}
			aborts++
		})); err != nil {
		t.Fatalf("run with abort handler: %v", err)
	}
	if aborts == 0 {
		t.Fatal("validation never fired")
	}
}
