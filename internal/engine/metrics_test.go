package engine

import (
	"testing"
	"time"

	"repro/internal/core"
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
	j := obs.NewJournal(64)
	var sunk int64
	const iters = 10
	if _, err := Run(Config{Graph: g, Behaviors: hotBehaviors(&sunk), Iterations: iters,
		Metrics: reg, Journal: j}); err != nil {
		t.Fatal(err)
	}

	snap := reg.EngineSnapshot()
	if snap.Running {
		t.Error("Running still true after the run ended")
	}
	if snap.Completed != iters {
		t.Errorf("Completed = %d, want %d", snap.Completed, iters)
	}
	if snap.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1 (single epoch, no hook)", snap.Barriers)
	}

	// q = [SRC:1, A:2, B:1, SNK:3]; token counts are per-iteration rate
	// sums times iters.
	want := map[string]struct{ firings, in, out int64 }{
		"SRC": {1 * iters, 0, 4 * iters},
		"A":   {2 * iters, 4 * iters, 4 * iters},
		"B":   {1 * iters, 4 * iters, 3 * iters},
		"SNK": {3 * iters, 3 * iters, 0},
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
		if a.Firings != w.firings || a.TokensIn != w.in || a.TokensOut != w.out {
			t.Errorf("%s: firings/in/out = %d/%d/%d, want %d/%d/%d",
				a.Name, a.Firings, a.TokensIn, a.TokensOut, w.firings, w.in, w.out)
		}
		if a.BusyNs < 0 || a.BlockedNs < 0 {
			t.Errorf("%s: negative time accounting busy=%d blocked=%d", a.Name, a.BusyNs, a.BlockedNs)
		}
	}

	for _, ed := range snap.Edges {
		if ed.Producer == "" || ed.Consumer == "" {
			t.Errorf("edge %s missing actor names: %+v", ed.Name, ed)
		}
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

	evs := j.Events()
	if len(evs) < 2 || evs[0].Kind != obs.EvRunStart || evs[len(evs)-1].Kind != obs.EvRunEnd {
		t.Fatalf("journal should be bracketed by run_start/run_end: %+v", evs)
	}
	if evs[len(evs)-1].Completed != iters {
		t.Errorf("run_end Completed = %d, want %d", evs[len(evs)-1].Completed, iters)
	}
}

// TestEngineMetricsRebindAndDrain drives the rebind counters and the
// journal through a parameter-changing Barrier hook that finally drains:
// every boundary is journaled, changed boundaries carry a rebind with a
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
	j := obs.NewJournal(64)
	const stopAt = 4
	res, err := Run(Config{Graph: g, Iterations: 100, Metrics: reg, Journal: j,
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
	for _, e := range j.Events() {
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
		t.Errorf("journaled %d barriers, want %d", barriers, stopAt)
	}
	if rebinds != 3 {
		t.Errorf("journaled %d rebinds, want 3", rebinds)
	}
	if len(digests) != 3 {
		t.Errorf("got %d distinct digests, want 3 (p = 3, 4, 2)", len(digests))
	}
	if drains != 1 {
		t.Errorf("journaled %d drain verdicts, want 1", drains)
	}
}

// TestEngineMetricsByClustering checks what the counters say about the two
// clusterings of one graph. One context walking the schedule never waits on
// a ring — no park, spin or wake on any actor or edge, occupancy within the
// analysis-derived capacity — while per-actor contexts still report their
// ring waits (the sink stalls once, so its upstream must run out of space);
// either way the actors' firings add up to the Result's and busy time is
// reported for actors that fired.
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
		var waits, busy int64
		for _, a := range snap.Actors {
			if a.Firings != res.Firings[a.Name] {
				t.Errorf("Workers %d: %s reports %d firings, Result has %d", workers, a.Name, a.Firings, res.Firings[a.Name])
			}
			waits += a.Parks + a.Spins + a.Wakes
			busy += a.BusyNs
		}
		for _, ed := range snap.Edges {
			if ed.HighWater > ed.Capacity {
				t.Errorf("Workers %d: edge %s high-water %d above capacity %d", workers, ed.Name, ed.HighWater, ed.Capacity)
			}
			waits += ed.ProdParks + ed.ConsParks
		}
		if busy <= 0 {
			t.Errorf("Workers %d: no busy time reported over a timed epoch", workers)
		}
		if workers == 0 && waits != 0 {
			t.Errorf("one context reported %d ring waits/wakes, want none: %+v", waits, snap.Actors)
		}
		if workers > 0 && waits == 0 {
			t.Errorf("Workers %d: no ring wait reported although the sink stalled its upstream", workers)
		}
	}
}
