package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/tpdf/obs"
)

// TestEngineMetricsCounters checks the harvested snapshot against the
// exactly-known execution profile of the multirate pipeline: firings are
// q[id] per iteration, token counts are rate sums, rings end at their
// initial occupancy and high-water never exceeds capacity.
func TestEngineMetricsCounters(t *testing.T) {
	g := multiratePipeline(t)
	reg := obs.NewRegistry()
	var sunk int64
	const iters = 10
	if _, err := Run(Config{Graph: g, Behaviors: hotBehaviors(&sunk), Iterations: iters,
		Metrics: reg}); err != nil {
		t.Fatal(err)
	}

	snap := reg.EngineSnapshot()
	if snap.Completed != iters {
		t.Errorf("Completed = %d, want %d", snap.Completed, iters)
	}
	if snap.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1 (single epoch, no hook)", snap.Barriers)
	}

	// q = [SRC:1, A:2, B:1, SNK:3]; token counts are per-iteration rate
	// sums times iters.
	want := map[string]struct{ firings, out int64 }{
		"SRC": {1 * iters, 4 * iters},
		"A":   {2 * iters, 4 * iters},
		"B":   {1 * iters, 3 * iters},
		"SNK": {3 * iters, 0},
	}
	if len(snap.Actors) != len(want) {
		t.Fatalf("got %d actors, want %d", len(snap.Actors), len(want))
	}
	for _, a := range snap.Actors {
		w, ok := want[a.Name]
		if !ok {
			t.Errorf("unexpected actor %q", a.Name)
			continue
		}
		if a.Firings != w.firings || a.TokensOut != w.out {
			t.Errorf("%s: firings/out = %d/%d, want %d/%d",
				a.Name, a.Firings, a.TokensOut, w.firings, w.out)
		}
	}

	for _, ed := range snap.Edges {
		if ed.Occupancy != 0 {
			t.Errorf("edge %s: occupancy %d after a schedule that returns to empty", ed.Name, ed.Occupancy)
		}
		if ed.HighWater < 1 || ed.HighWater > ed.Capacity {
			t.Errorf("edge %s: high-water %d outside (0, capacity=%d]", ed.Name, ed.HighWater, ed.Capacity)
		}
		if ed.Grows != 0 {
			t.Errorf("edge %s: %d grows without any reconfiguration", ed.Name, ed.Grows)
		}
	}

	evs := reg.Events()
	if len(evs) < 2 || evs[0].Kind != obs.EvRunStart || evs[len(evs)-1].Kind != obs.EvRunEnd {
		t.Fatalf("records should be bracketed by run_start/run_end: %+v", evs)
	}
	if evs[len(evs)-1].Completed != iters {
		t.Errorf("run_end Completed = %d, want %d", evs[len(evs)-1].Completed, iters)
	}
}

// TestEngineMetricsRebindAndDrain drives the rebind counters and the
// records through a parameter-changing Barrier hook that finally drains:
// every boundary is recorded, changed boundaries carry a rebind with a
// valuation digest, and the drain verdict lands at the right iteration.
func TestEngineMetricsRebindAndDrain(t *testing.T) {
	g := core.NewGraph("rebind")
	g.AddParam("p", 2, 1, 8)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	if _, err := g.Connect(a, "[p]", b, "[p]", 0); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	const stopAt = 4
	res, err := Run(Config{Graph: g, Iterations: 100, Metrics: reg,
		Barrier: func(completed int64) (map[string]int64, bool) {
			if completed == stopAt {
				return nil, true
			}
			// Change p at every boundary after the first iteration.
			if completed > 0 {
				return map[string]int64{"p": 2 + completed%3}, false
			}
			return nil, false
		}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings["A"] != stopAt {
		t.Fatalf("A fired %d times, want %d (drain at boundary %d)", res.Firings["A"], stopAt, stopAt)
	}

	snap := reg.EngineSnapshot()
	if snap.Completed != stopAt {
		t.Errorf("Completed = %d, want %d", snap.Completed, stopAt)
	}
	// Boundaries 1..3 change p (completed%3 = 1, 2, 0 -> p = 3, 4, 2);
	// every one of them differs from the previous value.
	if snap.Rebinds != 3 {
		t.Errorf("Rebinds = %d, want 3", snap.Rebinds)
	}
	if snap.RebindNs <= 0 {
		t.Errorf("RebindNs = %d, want > 0", snap.RebindNs)
	}
	if snap.BoundaryNs <= 0 {
		t.Errorf("BoundaryNs = %d, want > 0", snap.BoundaryNs)
	}

	var barriers, rebinds, drains int
	digests := map[uint64]bool{}
	for _, e := range reg.Events() {
		switch e.Kind {
		case obs.EvBarrier:
			barriers++
		case obs.EvRebind:
			rebinds++
			if e.ParamsDigest == 0 {
				t.Error("rebind event missing params digest")
			}
			digests[e.ParamsDigest] = true
			if e.DurNs <= 0 {
				t.Error("rebind event missing duration")
			}
		case obs.EvDrain:
			drains++
			if e.Completed != stopAt {
				t.Errorf("drain at completed=%d, want %d", e.Completed, stopAt)
			}
		}
	}
	if barriers != stopAt {
		t.Errorf("recorded %d barriers, want %d", barriers, stopAt)
	}
	if rebinds != 3 {
		t.Errorf("recorded %d rebinds, want 3", rebinds)
	}
	if len(digests) != 3 {
		t.Errorf("got %d distinct digests, want 3 (p = 3, 4, 2)", len(digests))
	}
	if drains != 1 {
		t.Errorf("recorded %d drain verdicts, want 1", drains)
	}
}

// TestEngineMetricsByClustering checks what the counters say about the two
// clusterings of one graph. One context walking the schedule never waits on
// a ring — no park or wake on any actor, occupancy within the
// analysis-derived capacity — while per-actor contexts still report their
// ring waits (the sink stalls once, so its upstream must run out of space);
// either way the actors' firings add up to the Result's.
func TestEngineMetricsByClustering(t *testing.T) {
	g := multiratePipeline(t)
	const iters = 64
	for _, workers := range []int{0, len(g.Nodes)} {
		reg := obs.NewRegistry()
		var sunk int64
		behaviors := hotBehaviors(&sunk)
		count := behaviors["SNK"]
		behaviors["SNK"] = func(f *runner.Firing) error {
			if f.K == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			return count(f)
		}
		res, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: iters, Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.EngineSnapshot()
		var waits int64
		for _, a := range snap.Actors {
			if a.Firings != res.Firings[a.Name] {
				t.Errorf("Workers %d: %s reports %d firings, Result has %d", workers, a.Name, a.Firings, res.Firings[a.Name])
			}
			waits += a.Parks + a.Wakes
		}
		for _, ed := range snap.Edges {
			if ed.HighWater > ed.Capacity {
				t.Errorf("Workers %d: edge %s high-water %d above capacity %d", workers, ed.Name, ed.HighWater, ed.Capacity)
			}
		}
		if workers == 0 && waits != 0 {
			t.Errorf("one context reported %d ring waits/wakes, want none: %+v", waits, snap.Actors)
		}
		if workers > 0 && waits == 0 {
			t.Errorf("Workers %d: no ring wait reported although the sink stalled its upstream", workers)
		}
	}
}

// TestTraceShape pins which records a deterministic hooked run makes — a
// reconfigure walk with revisits, one rebind rejected by the fault plan, a
// two-iteration verdict and a drain — against testdata/trace_shape.json,
// the Chrome trace of the same run with timestamps and durations zeroed:
// every event, kind, order, completed count, digest and detail.
func TestTraceShape(t *testing.T) {
	g := modesGraph(t)
	walk := []struct{ p, run int64 }{{2, 1}, {4, 1}, {4, 2}, {8, 1}, {2, 1}, {8, 1}, {4, 1}, {2, 1}}
	reg := obs.NewRegistry()
	var sunk int64
	at := 0
	_, err := Run(Config{Graph: g, Iterations: 20, Metrics: reg,
		Behaviors: modesBehaviors(&sunk),
		Boundary: func(completed int64) Verdict {
			if at == len(walk) {
				return Verdict{Stop: true}
			}
			s := walk[at]
			at++
			return Verdict{Params: map[string]int64{"p": s.p}, Run: s.run}
		},
		Faults:        faultinject.New(faultinject.Fault{Kind: faultinject.KindRebindAbort, K: 4}),
		OnRebindAbort: func(error) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		for _, k := range []string{"ts", "dur"} {
			if _, ok := ev[k]; ok {
				ev[k] = 0
			}
		}
	}
	got, err := json.MarshalIndent(evs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace_shape.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Errorf("trace shape changed:\n got %s\nwant %s", got, want)
	}
}
