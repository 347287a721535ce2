package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/runner"
	"repro/internal/sinkrec"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// TestOneContextNeverWaits checks the specification the one-context path
// rests on: at the analysis-derived capacities the next firing of the PASS
// is always enabled. A one-context run's rings are solo, so a firing that
// was not enabled would fail the run with a deadlock instead of parking;
// every run below must complete, report no park, spin or wake on any actor
// or edge, and equal the reference stack (runner.Run, which lowers through
// Instantiate and keeps its own firing loop). Inputs: every builtin and 32
// generated graphs, each under a seeded valuation walk that may change the
// parameters at every boundary, and the same walk resumed from a cut taken
// in its middle.
func TestOneContextNeverWaits(t *testing.T) {
	graphs := []*core.Graph{
		apps.Fig2(), apps.Fig4a(), apps.Fig4b(),
		apps.OFDMTPDF(apps.DefaultOFDM()), apps.OFDMCSDF(apps.DefaultOFDM()),
		apps.EdgeDetection(500, nil).Graph,
		apps.FMRadioTPDF(), apps.FMRadioCSDF(), apps.VC1Decoder(),
		apps.MotionEstimation(500, 60, 15).Graph,
	}
	for seed := int64(1); seed <= 32; seed++ {
		graphs = append(graphs, gen.Graph(seed, gen.GraphConfig{}))
	}
	const iters = 8
	walked := 0
	for i, g := range graphs {
		t.Run(fmt.Sprintf("%d-%s", i, g.Name), func(t *testing.T) {
			walk := valuationWalk(t, g, rand.New(rand.NewSource(int64(i)+1)), iters)
			for it := 1; it < iters; it++ {
				if !reflect.DeepEqual(walk[it], walk[it-1]) {
					walked++
					break
				}
			}
			want, wantSeq := referenceWalk(t, g, walk)
			reconf := func(completed int64) map[string]int64 { return walk[completed] }

			var saved *Checkpoint
			got, gotSeq := oneContextLeg(t, g, walk, reconf, nil, func(ck *Checkpoint) {
				if ck.Completed == iters/2 {
					saved = ck.Clone()
				}
			})
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSeq, wantSeq) {
				t.Fatalf("walk %v:\n engine %+v %v\n runner %+v %v", walk, got, gotSeq, want, wantSeq)
			}
			if saved == nil {
				t.Fatalf("no cut at boundary %d", iters/2)
			}
			got, gotSeq = oneContextLeg(t, g, walk, reconf, saved, nil)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSeq, wantSeq) {
				t.Fatalf("walk %v resumed at %d:\n engine %+v %v\n runner %+v %v", walk, iters/2, got, gotSeq, want, wantSeq)
			}
		})
	}
	t.Logf("%d of %d walks change the valuation", walked, len(graphs))
	if walked < len(graphs)/3 {
		t.Errorf("only %d of %d walks change the valuation", walked, len(graphs))
	}
}

// TestSoloHighWaterIsTheTrace: a solo ring keeps no per-publish stats, its
// high-water mark comes from the PASS (soloPeaks). It must be the mark the
// run's own firings reach: replaying the observed firing order on token
// counts, at the instantiated rates, gives every edge's mark under one
// context, and a self-loop's — the only solo ring there — under per-actor
// contexts.
func TestSoloHighWaterIsTheTrace(t *testing.T) {
	graphs := []*core.Graph{
		apps.Fig2(), apps.Fig4a(), apps.Fig4b(), apps.OFDMCSDF(apps.DefaultOFDM()),
		apps.FMRadioTPDF(), apps.FMRadioCSDF(), apps.VC1Decoder(),
	}
	for seed := int64(1); seed <= 16; seed++ {
		graphs = append(graphs, gen.Graph(seed, gen.GraphConfig{}))
	}
	loop := core.NewGraph("selfloop")
	a, b := loop.AddKernel("A", 1), loop.AddKernel("B", 1)
	for _, c := range []struct {
		to         core.NodeID
		prod, cons string
		initial    int64
	}{{a, "[1,3]", "[2]", 3}, {b, "[2]", "[1]", 0}} {
		if _, err := loop.Connect(a, c.prod, c.to, c.cons, c.initial); err != nil {
			t.Fatal(err)
		}
	}
	graphs = append(graphs, loop)
	for i, g := range graphs {
		cg, _, err := g.Instantiate(symb.Env(g.DefaultEnv()))
		if err != nil {
			t.Fatal(err)
		}
		actor := map[string]int{}
		for a := range cg.Actors {
			actor[cg.Actors[a].Name] = a
		}
		for _, workers := range []int{1, 4} {
			var order []int
			beh := map[string]runner.Behavior{}
			for _, n := range g.Nodes {
				a, ok := actor[n.Name]
				if !ok {
					t.Fatalf("%s: node %s has no actor", g.Name, n.Name)
				}
				beh[n.Name] = func(*runner.Firing) error {
					if workers == 1 {
						order = append(order, a)
					}
					return nil
				}
			}
			reg := obs.NewRegistry()
			res, err := Run(Config{Graph: g, Behaviors: beh, Iterations: 3, Workers: workers, Metrics: reg})
			if err != nil {
				t.Fatalf("%d-%s Workers %d: %v", i, g.Name, workers, err)
			}
			if workers > 1 {
				for _, e := range cg.Edges {
					if e.Src == e.Dst {
						for range res.Firings[cg.Actors[e.Src].Name] {
							order = append(order, e.Src)
						}
					}
				}
			}
			tokens, mark, fired := make([]int64, len(cg.Edges)), make([]int64, len(cg.Edges)), make([]int64, len(cg.Actors))
			for ci := range cg.Edges {
				tokens[ci], mark[ci] = cg.Edges[ci].Initial, cg.Edges[ci].Initial
			}
			for _, a := range order {
				for ci := range cg.Edges {
					if cg.Edges[ci].Dst == a {
						tokens[ci] -= cg.Edges[ci].ConsAt(fired[a])
					}
				}
				for ci := range cg.Edges {
					if cg.Edges[ci].Src == a {
						tokens[ci] += cg.Edges[ci].ProdAt(fired[a])
						mark[ci] = max(mark[ci], tokens[ci])
					}
				}
				fired[a]++
			}
			for ci, ed := range reg.EngineSnapshot().Edges {
				solo := cg.Edges[ci].Src == cg.Edges[ci].Dst
				if ed.Name != cg.Edges[ci].Name {
					t.Fatalf("%s: edge %d is %s in the snapshot, %s instantiated", g.Name, ci, ed.Name, cg.Edges[ci].Name)
				}
				if (workers == 1 || solo) && ed.HighWater != mark[ci] {
					t.Errorf("%d-%s Workers %d: edge %s high-water %d, the firings reach %d", i, g.Name, workers, ed.Name, ed.HighWater, mark[ci])
				}
			}
		}
	}
}

// valuationWalk draws one valuation per iteration: each parameter within
// two steps of its default and inside its declared range, redrawn until
// the reference stack accepts it (a refused valuation keeps the previous
// one).
func valuationWalk(t *testing.T, g *core.Graph, rng *rand.Rand, iters int) []map[string]int64 {
	t.Helper()
	walk := make([]map[string]int64, iters)
	prev := map[string]int64{}
	for k, v := range g.DefaultEnv() {
		prev[k] = v
	}
	for it := range walk {
		walk[it] = prev
		for try := 0; try < 4 && len(g.Params) > 0; try++ {
			v := map[string]int64{}
			for _, p := range g.Params {
				lo, hi := max(p.Min, 1, p.Default-2), p.Default+2
				if p.Max > 0 {
					hi = min(hi, p.Max)
				}
				v[p.Name] = lo + rng.Int63n(max(hi-lo, 0)+1)
			}
			if _, err := runner.Run(runner.Config{Graph: g, Env: symb.Env(v)}); err == nil {
				walk[it], prev = v, v
				break
			}
		}
	}
	return walk
}

// referenceWalk runs the walk on the reference stack: one runner.Run per
// stretch of equal valuations (rate phases restart exactly where the engine
// restarts them, at a boundary that changes the environment), firings
// summed, sink sequences concatenated. An iteration returns every edge to
// its starting occupancy, so each stretch starts from the declared initial
// tokens and the last one's leftovers are the walk's.
func referenceWalk(t *testing.T, g *core.Graph, walk []map[string]int64) (*runner.Result, map[string][]int64) {
	t.Helper()
	res := &runner.Result{Firings: map[string]int64{}}
	seq := map[string][]int64{}
	for from := 0; from < len(walk); {
		to := from + 1
		for to < len(walk) && reflect.DeepEqual(walk[to], walk[from]) {
			to++
		}
		rec := sinkrec.New(gen.SinkNodes(g))
		r, err := runner.Run(runner.Config{Graph: g, Env: symb.Env(walk[from]), Behaviors: rec.Behaviors(), Iterations: int64(to - from)})
		if err != nil {
			t.Fatalf("reference at %v: %v", walk[from], err)
		}
		for n, f := range r.Firings {
			res.Firings[n] += f
		}
		for n, s := range rec.Seq() {
			seq[n] = append(seq[n], s...)
		}
		res.Remaining = r.Remaining
		from = to
	}
	return res, seq
}

// oneContextLeg runs the walk on one context, from resume when non-nil,
// and fails the test unless every ring stayed on its fast path.
func oneContextLeg(t *testing.T, g *core.Graph, walk []map[string]int64, reconf func(int64) map[string]int64,
	resume *Checkpoint, sink func(*Checkpoint)) (*runner.Result, map[string][]int64) {
	t.Helper()
	rec := sinkrec.New(gen.SinkNodes(g))
	reg := obs.NewRegistry()
	res, err := Run(Config{Graph: g, Env: symb.Env(walk[0]), Behaviors: rec.Behaviors(),
		Iterations: int64(len(walk)), Reconfigure: reconf, Metrics: reg, Resume: resume,
		CheckpointSink: sink, SnapshotUser: rec.Snapshot, RestoreUser: rec.Restore})
	if err != nil {
		t.Fatalf("walk %v (resumed: %v): %v", walk, resume != nil, err)
	}
	snap := reg.EngineSnapshot()
	for _, a := range snap.Actors {
		if a.Parks+a.Spins+a.Wakes != 0 {
			t.Errorf("actor %s waited on a ring: %d parks, %d spins, %d wakes", a.Name, a.Parks, a.Spins, a.Wakes)
		}
	}
	for _, ed := range snap.Edges {
		if ed.ProdParks+ed.ConsParks != 0 || ed.HighWater > ed.Capacity {
			t.Errorf("edge %s: %d/%d parks, high-water %d of capacity %d", ed.Name, ed.ProdParks, ed.ConsParks, ed.HighWater, ed.Capacity)
		}
	}
	return res, rec.Seq()
}

// TestSoloRingRefusesToWait: a solo ring (both ends in one context) whose
// capacity is smaller than the schedule needs — set by hand, since every
// ring a run builds has the derived capacity — refuses the wait instead of
// parking: the run fails at once with the watchdog's diagnosis, on either
// side, without a goroutine started or left behind.
func TestSoloRingRefusesToWait(t *testing.T) {
	for _, side := range []struct {
		want string
		op   func(*ring, chan struct{}) bool
	}{
		{"actor A waiting for space on e0 (2/3 tokens)", func(r *ring, stop chan struct{}) bool { return r.write(make([]any, 2), stop) }},
		{"actor B waiting for tokens on e0 (2/3 tokens)", func(r *ring, stop chan struct{}) bool { return r.read(make([]any, 3), 3, stop) }},
	} {
		baseline := runtime.NumGoroutine()
		r := newRing(3)
		r.solo = true
		e := &engine{
			stop:     make(chan struct{}),
			jr:       obs.NewJournal(16),
			rings:    []*ring{r},
			edgeName: []string{"e0"},
			edgeProd: []string{"A"},
			edgeCons: []string{"B"},
		}
		r.writeNil(2, e.stop)
		start := time.Now()
		if side.op(r, e.stop) || e.halted() {
			t.Fatalf("%s: a solo ring operation that cannot complete reported success", side.want)
		}
		if d := time.Since(start); d > stallWindow/10 {
			t.Errorf("%s: refusal took %v", side.want, d)
		}
		err := e.firstErr()
		if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), side.want) {
			t.Errorf("got %v, want a deadlock diagnosis naming %q", err, side.want)
		}
		stalls := 0
		for _, ev := range e.jr.Events() {
			if ev.Kind == obs.EvStall {
				stalls++
			}
		}
		if stalls != 1 {
			t.Errorf("%s: journaled %d stall events, want 1", side.want, stalls)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines, %d before", side.want, n, baseline)
		}
	}
}
