package tpdf_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/sinkrec"
	"repro/tpdf"
	"repro/tpdf/obs"
)

// accounts is the caller's own ledger of a supervised Stream run, kept from
// what the caller observes — its hook's calls and verdicts, the rebind-abort
// handler, the user-state snapshots and restores — and from the documented
// protocol alone: a non-stop verdict crosses a barrier; a verdict that
// changes the valuation is a rebind unless the abort handler refuses it; a
// rebind builds a row for a valuation the run's table has not held since
// its (re)start, and a refused one still leaves its row behind; a restart
// resumes at the cut of the panicked epoch's opening boundary and replays
// that boundary's verdict minus refused Params.
type accounts struct {
	cur, pend map[string]int64 // committed valuation; an unsettled change
	seen      map[string]bool  // valuations the current incarnation's rows hold
	last      map[string]int64 // Params of the hook's last verdict
	refused   bool             // the last verdict's change was refused
	replay    bool             // a restart's replayed verdict is still to cross

	barriers, rebinds, rowsBuilt, rebindAborts, restores int64
}

func valKey(v map[string]int64) string { return fmt.Sprint(v) }

func (a *accounts) settle() {
	if a.pend == nil {
		return
	}
	a.rebinds++
	if k := valKey(a.pend); !a.seen[k] {
		a.rowsBuilt++
		a.seen[k] = true
	}
	a.cur, a.pend = a.pend, nil
}

// cross is one boundary the engine crosses with a non-stop verdict.
func (a *accounts) cross(params map[string]int64) {
	a.barriers++
	next := maps.Clone(a.cur)
	maps.Copy(next, params)
	if !maps.Equal(next, a.cur) {
		a.pend = next
	}
}

type acctState struct {
	rec any
	cur map[string]int64
}

// TestAccountsProperty is the engine slice of the accounts invariant pair:
// over generated graphs driven by seeded boundary walks, injected rebind
// rejections and behavior panics recovered by WithPanicRecovery, the
// registry's boundary totals equal the caller's ledger, its per-actor
// firings equal the Result's, and — when the record ring did not wrap —
// its retained records of each kind add up to the totals.
func TestAccountsProperty(t *testing.T) {
	const iters = 16
	for seed := int64(1); seed <= 48; seed++ {
		g := gen.Graph(seed, gen.GraphConfig{})
		sinks := gen.SinkNodes(g)
		rng := rand.New(rand.NewSource(seed))

		type verdict struct {
			params map[string]int64
			run    int64
			stop   bool
		}
		walk := make([]verdict, iters)
		for c := range walk {
			v := verdict{run: 1 + rng.Int63n(3), stop: c > iters/2 && rng.Intn(8) == 0}
			for _, p := range g.Params {
				if p.Max > p.Min && rng.Intn(2) == 0 {
					if v.params == nil {
						v.params = map[string]int64{}
					}
					v.params[p.Name] = p.Min + rng.Int63n(min(p.Max-p.Min, 2)+1)
				}
			}
			walk[c] = v
		}
		var faults []faultinject.Fault
		for range 2 {
			faults = append(faults,
				faultinject.Fault{Kind: faultinject.KindRebindAbort, K: rng.Int63n(iters)},
				faultinject.Fault{Kind: faultinject.KindPanic, Node: sinks[rng.Intn(len(sinks))], K: rng.Int63n(iters)})
		}

		rec := sinkrec.New(sinks)
		a := &accounts{cur: map[string]int64{}, seen: map[string]bool{}}
		maps.Copy(a.cur, g.DefaultEnv())
		a.seen[valKey(a.cur)] = true
		reg := obs.NewRegistry()
		res, err := tpdf.Stream(g, rec.Behaviors(),
			tpdf.WithIterations(iters),
			tpdf.WithMetrics(reg),
			tpdf.WithBoundary(func(completed int64) tpdf.Verdict {
				a.settle()
				v := walk[completed]
				if v.stop {
					return tpdf.Verdict{Stop: true}
				}
				a.last, a.refused = v.params, false
				a.cross(v.params)
				return tpdf.Verdict{Params: v.params, Run: v.run}
			}),
			tpdf.WithRebindAbortHandler(func(error) {
				a.rebindAborts++
				a.seen[valKey(a.pend)] = true
				a.pend, a.refused = nil, true
			}),
			tpdf.WithUserState(func() any {
				a.settle()
				s := acctState{rec.Snapshot(), maps.Clone(a.cur)}
				if a.replay {
					// The restarted engine's first cut, taken before the
					// replayed verdict applies.
					a.replay = false
					if a.refused {
						a.cross(nil)
					} else {
						a.cross(a.last)
					}
				}
				return s
			}, func(u any) {
				a.settle()
				s := u.(acctState)
				rec.Restore(s.rec)
				a.restores++
				a.cur, a.seen = maps.Clone(s.cur), map[string]bool{valKey(s.cur): true}
				a.replay = true
			}),
			tpdf.WithPanicRecovery(len(faults)),
			tpdf.WithFaultPlan(faultinject.New(faults...)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a.settle()

		snap := reg.EngineSnapshot()
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"Barriers", snap.Barriers, a.barriers},
			{"Rebinds", snap.Rebinds, a.rebinds},
			{"RowsBuilt", snap.RowsBuilt, a.rowsBuilt},
			// Every restart follows one behavior panic.
			{"Aborts", snap.Aborts, a.rebindAborts + a.restores},
			{"Restores", snap.Restores, a.restores},
		} {
			if c.got != c.want {
				t.Errorf("seed %d: registry %s = %d, caller counted %d", seed, c.name, c.got, c.want)
			}
		}
		for _, act := range snap.Actors {
			if act.Firings != res.Firings[act.Name] {
				t.Errorf("seed %d: actor %s: registry %d firings, Result %d", seed, act.Name, act.Firings, res.Firings[act.Name])
			}
		}

		evs := reg.Events()
		if len(evs) >= 256 {
			continue // the ring may have wrapped
		}
		var got obs.EngineSnapshot
		for _, ev := range evs {
			switch ev.Kind {
			case obs.EvBarrier:
				got.Barriers++
				got.BoundaryNs += ev.DurNs
			case obs.EvRebind:
				got.Rebinds++
				got.RebindNs += ev.DurNs
				if ev.Detail == obs.RowBuilt {
					got.RowsBuilt++
				}
			case obs.EvAbort:
				got.Aborts++
			case obs.EvRestore:
				got.Restores++
			}
		}
		snap.Completed, snap.Actors, snap.Edges = 0, nil, nil
		if !reflect.DeepEqual(got, snap) {
			t.Errorf("seed %d: retained records sum to %+v, totals are %+v", seed, got, snap)
		}
	}
}

// TestHooklessRunCountsOneBarrier: a run without a boundary hook is one
// epoch behind one boundary, and the registry's count and its records say
// so alike.
func TestHooklessRunCountsOneBarrier(t *testing.T) {
	g, err := tpdf.Builtin("fig2")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := tpdf.Stream(g, nil, tpdf.WithIterations(5), tpdf.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	barriers := 0
	for _, ev := range reg.Events() {
		if ev.Kind == obs.EvBarrier {
			barriers++
		}
	}
	if snap := reg.EngineSnapshot(); snap.Barriers != 1 || barriers != 1 {
		t.Errorf("Barriers = %d, %d barrier records; want 1 and 1", snap.Barriers, barriers)
	}
}
