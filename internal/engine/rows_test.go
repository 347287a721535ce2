package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/runner"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// modesGraph is bench's stream-modes pipeline: SRC bursts 32 tokens, SNK
// consumes p per firing, so p changes the repetition vector and the PASS,
// never the token total.
func modesGraph(t testing.TB) *core.Graph {
	t.Helper()
	g := core.NewGraph("modes")
	g.AddParam("p", 2, 1, 8)
	src, a := g.AddKernel("SRC", 1), g.AddKernel("A", 1)
	b, snk := g.AddKernel("B", 1), g.AddKernel("SNK", 1)
	for _, c := range []struct {
		from       core.NodeID
		prod, cons string
		to         core.NodeID
	}{{src, "[32]", "[1]", a}, {a, "[1]", "[1]", b}, {b, "[1]", "[p]", snk}} {
		if _, err := g.Connect(c.from, c.prod, c.to, c.cons, 0); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func modesBehaviors(sunk *int64) map[string]runner.Behavior {
	pass := func(f *runner.Firing) error {
		f.Out["o0"] = append(f.Out["o0"], f.In["i0"]...)
		return nil
	}
	return map[string]runner.Behavior{
		"SRC": func(f *runner.Firing) error {
			for i := 0; i < 32; i++ {
				f.Out["o0"] = append(f.Out["o0"], i)
			}
			return nil
		},
		"A": pass, "B": pass,
		"SNK": func(f *runner.Firing) error {
			*sunk += int64(len(f.In["i0"]))
			return nil
		},
	}
}

// TestRevisitedBoundaryAllocationFree pins the scenario table's contract:
// once every valuation of a cycle has its row (one lap), a changed boundary
// is a table hit and allocates nothing — two runs differing only in how many
// laps they make allocate the same, bare and with a registry, a journal and
// a copying checkpoint sink attached.
func TestRevisitedBoundaryAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting skipped in -short (race CI inflates runtime bookkeeping)")
	}
	g := modesGraph(t)
	var cycle [3]map[string]int64
	for i, p := range [3]int64{2, 4, 8} {
		cycle[i] = map[string]int64{"p": p}
	}
	for _, v := range []struct {
		name     string
		decorate func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"metrics+journal+checkpoints", func(cfg *Config) {
			held := &Checkpoint{}
			cfg.Metrics = obs.NewRegistry()
			cfg.Journal = obs.NewJournal(128)
			cfg.CheckpointSink = func(ck *Checkpoint) { ck.CopyInto(held) }
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			measure := func(iters int64) uint64 {
				var sunk int64
				cfg := Config{Graph: g, Behaviors: modesBehaviors(&sunk), Iterations: iters,
					Reconfigure: func(completed int64) map[string]int64 { return cycle[completed%3] }}
				v.decorate(&cfg)
				var m1, m2 runtime.MemStats
				runtime.ReadMemStats(&m1)
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m2)
				if sunk != 32*iters {
					t.Fatalf("sink saw %d tokens, want %d", sunk, 32*iters)
				}
				return m2.Mallocs - m1.Mallocs
			}
			const small, big = 30, 3000
			measure(small)
			smallAllocs, bigAllocs := measure(small), measure(big)
			per := (float64(bigAllocs) - float64(smallAllocs)) / float64(big-small)
			t.Logf("allocs: %d @ %d iters, %d @ %d iters -> %.4f allocs/changed boundary", smallAllocs, small, bigAllocs, big, per)
			if per > 0.01 {
				t.Errorf("a revisited boundary allocates %.4f times, want 0", per)
			}
		})
	}
}

// tableEngine wires an engine for g at env without starting its contexts,
// so a test can drive the boundary (reconfigure) and the firing path
// (runContext on the one context) by hand and look at the table between
// them. Nodes have no behaviors: tokens only.
func tableEngine(t testing.TB, g *core.Graph, env symb.Env) *engine {
	t.Helper()
	sk, err := core.CompileSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	first := &row{prog: sk.NewProgram()}
	e := &engine{cfg: Config{Graph: g}, cg: first.prog.Concrete(),
		stop: make(chan struct{}), actors: make([]actorState, len(g.Nodes))}
	e.rows = append(e.rowBuf[:0], first)
	if err := e.wire(env, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// fullEnv is the valuation Run would start from: defaults, then over.
func fullEnv(g *core.Graph, over map[string]int64) symb.Env {
	env := g.DefaultEnv()
	for k, v := range over {
		env[k] = v
	}
	return env
}

// checkCommitted compares everything the engine reads from its committed
// row with a Program bound and scheduled on the spot from the rings' live
// occupancy.
func checkCommitted(t *testing.T, e *engine, env symb.Env, label string) {
	t.Helper()
	fresh, err := core.Bind(e.cfg.Graph, env)
	if err != nil {
		t.Fatalf("%s: fresh bind: %v", label, err)
	}
	fcg := fresh.Concrete()
	for ci := range fcg.Edges {
		fcg.Edges[ci].Initial = e.rings[ci].len()
	}
	sch, err := fcg.BuildSchedule(fresh.Solution(), csdf.Demand)
	if err != nil {
		t.Fatalf("%s: fresh schedule: %v", label, err)
	}
	if !reflect.DeepEqual(e.cg.Edges, fcg.Edges) {
		t.Fatalf("%s: rates or occupancy differ:\n row   %+v\n fresh %+v", label, e.cg.Edges, fcg.Edges)
	}
	if got, want := e.prog.Solution(), fresh.Solution(); !slices.Equal(got.R, want.R) || !slices.Equal(got.Q, want.Q) {
		t.Fatalf("%s: repetition vector: row %+v, fresh %+v", label, got, want)
	}
	if !slices.Equal(e.order, sch.Order) {
		t.Fatalf("%s: PASS: row %v, fresh %v", label, e.order, sch.Order)
	}
	var active *row
	for _, r := range e.rows {
		if r.prog == e.prog {
			active = r
		}
	}
	for ci := range fcg.Edges {
		want := capacityFor(&fcg.Edges[ci], sch.MaxTokens[ci], 0)
		if active.caps[ci] != want || e.rings[ci].cap() < want {
			t.Fatalf("%s: edge %d: row capacity %d, ring %d, fresh %d", label, ci, active.caps[ci], e.rings[ci].cap(), want)
		}
	}
}

// TestRowEqualsFreshBuild: over the builtins that declare parameters and
// 100 generated graphs, cycle a handful of valuations for three laps with an
// iteration run between boundaries; every boundary after the first lap must
// be a table hit, and what a hit commits must equal a fresh Bind +
// BuildSchedule(Demand) from the live occupancy.
func TestRowEqualsFreshBuild(t *testing.T) {
	type tc struct {
		g    *core.Graph
		vals []map[string]int64
	}
	cases := []tc{
		{apps.Fig2(), []map[string]int64{{"p": 1}, {"p": 2}, {"p": 5}}},
		{apps.Fig4a(), []map[string]int64{{"p": 2}, {"p": 3}, {"p": 7}}},
		{apps.Fig4b(), []map[string]int64{{"p": 2}, {"p": 4}}},
		{apps.OFDMTPDF(apps.OFDMParams{Beta: 2, M: 2, N: 8, L: 1}), []map[string]int64{{"beta": 1}, {"beta": 3, "M": 4}, {"N": 16, "L": 2}, {"beta": 2, "M": 2, "N": 8, "L": 1}}},
		{apps.VC1Decoder(), []map[string]int64{{"mb": 4}, {"mb": 6}, {"mb": 9}}},
		{modesGraph(t), []map[string]int64{{"p": 2}, {"p": 4}, {"p": 8}}},
	}
	for seed, n := int64(1), 0; n < 100; seed++ {
		g := gen.Graph(seed, gen.GraphConfig{})
		if len(g.Params) == 0 {
			continue
		}
		n++
		// Every parameter at its minimum, its maximum, and a mix.
		lo, hi, mix := map[string]int64{}, map[string]int64{}, map[string]int64{}
		for i, p := range g.Params {
			lo[p.Name], hi[p.Name], mix[p.Name] = p.Min, p.Max, p.Min+int64(i+1)%(p.Max-p.Min+1)
		}
		cases = append(cases, tc{g, []map[string]int64{lo, hi, mix}})
	}
	for _, c := range cases {
		t.Run(c.g.Name, func(t *testing.T) {
			cur := fullEnv(c.g, c.vals[0])
			e := tableEngine(t, c.g, cur)
			checkCommitted(t, e, cur, "first row")
			for it := 0; it < 3*len(c.vals); it++ {
				e.runContext(0, 1)
				if err := e.firstErr(); err != nil {
					t.Fatal(err)
				}
				for k, v := range c.vals[(it+1)%len(c.vals)] {
					cur[k] = v
				}
				built, err := e.reconfigure(cur, int64(it+1))
				if err != nil {
					t.Fatalf("boundary %d at %v: %v", it+1, cur, err)
				}
				if revisit := it+1 >= len(c.vals); built && revisit {
					t.Errorf("boundary %d at %v: a revisited valuation was built again", it+1, cur)
				}
				checkCommitted(t, e, cur, fmt.Sprintf("boundary %d at %v (built=%v)", it+1, cur, built))
			}
			if len(e.rows) > len(c.vals) {
				t.Errorf("%d rows for %d valuations", len(e.rows), len(c.vals))
			}
		})
	}
}

// refusalGraph has one way to be refused per parameter: p is range-checked,
// h/2 is a rate (odd h is not an integer), and the A⇄B cycle holds 2 tokens,
// so c = 3 has no schedule. SNK sees p tokens per firing.
func refusalGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph("refusals")
	g.AddParam("p", 1, 1, 40)
	g.AddParam("h", 2, 1, 8)
	g.AddParam("c", 1, 1, 3)
	src, a, b, snk := g.AddKernel("SRC", 1), g.AddKernel("A", 1), g.AddKernel("B", 1), g.AddKernel("SNK", 1)
	for _, c := range []struct {
		from    core.NodeID
		rate    string
		to      core.NodeID
		initial int64
	}{{src, "[p]", snk, 0}, {src, "[h/2]", snk, 0}, {a, "[c]", b, 0}, {b, "[c]", a, 2}} {
		if _, err := g.Connect(c.from, c.rate, c.to, c.rate, c.initial); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestRefusedValuationLeavesActiveRow: with the table full (more valuations
// visited than it holds), every way a valuation can be refused — parameter
// out of range, non-integer rate, no bounded schedule, an injected fault —
// is attempted twice in a row (for the fault: once building the row, once
// hitting it — or hitting a resident row twice), then followed by valid
// rebinds, one to an evicted valuation and one to a resident one. The run
// must be byte-identical to one whose hook never made the refused attempts.
func TestRefusedValuationLeavesActiveRow(t *testing.T) {
	g := refusalGraph(t)
	type step struct {
		params map[string]int64
		refuse string // "", "rebind", "fault"
	}
	var plan []step
	for p := int64(1); p <= maxRows+4; p++ { // fill the table and evict past it
		plan = append(plan, step{params: map[string]int64{"p": p}})
	}
	for _, bad := range []step{
		{map[string]int64{"p": 41}, "rebind"},
		{map[string]int64{"h": 3}, "rebind"},
		{map[string]int64{"c": 3}, "rebind"},
		{map[string]int64{"p": 30}, "fault"}, // never visited: built, then hit
		{map[string]int64{"p": 19}, "fault"}, // resident: hit both times
		{map[string]int64{"p": 31}, "fault"},
		{map[string]int64{"p": 18}, "fault"},
	} {
		plan = append(plan, bad, bad,
			step{params: map[string]int64{"p": 2}},  // evicted long ago
			step{params: map[string]int64{"p": 20}}, // resident
			step{params: map[string]int64{"h": 4}})  // another parameter
		if bad.refuse != "rebind" {
			// The verdict was about that boundary, not about the valuation.
			plan = append(plan, step{params: bad.params})
		}
	}
	iters := int64(len(plan))

	run := func(attempt bool) (seen [][2]int, final *Checkpoint, res *runner.Result, aborts int, reg *obs.Registry) {
		reg = obs.NewRegistry()
		var faults []faultinject.Fault
		cfg := Config{
			Graph: g, Iterations: iters, Metrics: reg,
			Behaviors: map[string]runner.Behavior{"SNK": func(f *runner.Firing) error {
				seen = append(seen, [2]int{len(f.In["i0"]), len(f.In["i1"])})
				return nil
			}},
			CheckpointSink: func(ck *Checkpoint) { final = ck.Clone() },
			OnRebindAbort: func(err error) {
				if !errors.Is(err, ErrRebindAborted) {
					t.Errorf("abort handler got %v", err)
				}
				aborts++
			},
		}
		for at, s := range plan {
			if s.refuse == "fault" && attempt {
				faults = append(faults, faultinject.Fault{Kind: faultinject.KindRebindAbort, K: int64(at)})
			}
		}
		cfg.Boundary = func(completed int64) Verdict {
			s := plan[completed]
			if s.refuse != "" && !attempt {
				return Verdict{Run: 1}
			}
			return Verdict{Params: s.params, Run: 1}
		}
		if attempt {
			cfg.Faults = faultinject.New(faults...)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("attempt=%v: %v", attempt, err)
		}
		return seen, final, res, aborts, reg
	}

	seen, final, res, aborts, reg := run(true)
	wantSeen, wantFinal, wantRes, noAborts, _ := run(false)
	if aborts != 14 || noAborts != 0 {
		t.Errorf("%d aborts (reference %d), want 14 (0)", aborts, noAborts)
	}
	if !reflect.DeepEqual(seen, wantSeen) {
		t.Errorf("rates the sink observed diverged:\n got %v\nwant %v", seen, wantSeen)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("results diverged:\n got %+v\nwant %+v", res, wantRes)
	}
	if !reflect.DeepEqual(final, wantFinal) {
		t.Errorf("final checkpoints diverged:\n got %+v\nwant %+v", final, wantFinal)
	}
	if snap := reg.EngineSnapshot(); snap.Aborts != 14 || snap.RowsBuilt >= snap.Rebinds {
		t.Errorf("aborts %d, rebinds %d, rows built %d: want 14 aborts and fewer rows built than rebinds", snap.Aborts, snap.Rebinds, snap.RowsBuilt)
	}
}

// TestOccupancyMismatchIsAMiss: a row is keyed by its valuation but valid
// only from the occupancy its PASS was built at. Within one run every
// boundary sees the run's starting occupancy (iterations are periodic), so
// the mismatch is provoked by hand on a wired engine — and then met the way
// it arises in practice: a run resumed from a checkpoint with leftovers on
// an edge builds, from those leftovers, a valuation first seen before the
// cut.
func TestOccupancyMismatchIsAMiss(t *testing.T) {
	g := modesGraph(t)
	e := tableEngine(t, g, fullEnv(g, map[string]int64{"p": 2}))
	visit := func(p int64, wantBuilt bool) {
		t.Helper()
		env := fullEnv(g, map[string]int64{"p": p})
		built, err := e.reconfigure(env, 0)
		if err != nil {
			t.Fatal(err)
		}
		if built != wantBuilt {
			t.Errorf("p=%d: built=%v, want %v", p, built, wantBuilt)
		}
		checkCommitted(t, e, env, fmt.Sprintf("p=%d", p))
	}
	visit(4, true)
	visit(2, false)
	visit(4, false)
	// Three more tokens on B→SNK: every row is now stale, the committed one
	// included.
	e.rings[2].grow(e.rings[2].len() + 3)
	e.rings[2].writeNil(3, e.stop)
	visit(4, true)
	visit(2, true)
	visit(4, false)
	if len(e.rows) != 3 {
		// p=2's stale row was rebuilt in place; p=4's was the committed row
		// when it went stale, so its replacement is a third row.
		t.Errorf("%d rows, want 3", len(e.rows))
	}

	// The resumed run: 8 tokens wait on B→SNK in the checkpoint.
	var saved *Checkpoint
	hook := func(completed int64) map[string]int64 {
		return map[string]int64{"p": []int64{2, 4, 8}[completed%3]}
	}
	g2 := core.NewGraph("leftover")
	g2.AddParam("p", 2, 1, 8)
	a, b := g2.AddKernel("A", 1), g2.AddKernel("B", 1)
	if _, err := g2.Connect(a, "[p]", b, "[p]", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Graph: g2, Iterations: 4, Reconfigure: hook,
		CheckpointSink: func(ck *Checkpoint) { saved = ck.Clone() }}); err != nil {
		t.Fatal(err)
	}
	if len(saved.Edges[0]) != 5 {
		t.Fatalf("checkpoint holds %d tokens on e1, want 5", len(saved.Edges[0]))
	}
	reg := obs.NewRegistry()
	jr := obs.NewJournal(64)
	if _, err := Run(Config{Graph: g2, Iterations: 10, Reconfigure: hook, Resume: saved, Metrics: reg, Journal: jr}); err != nil {
		t.Fatal(err)
	}
	// Boundaries 4..9 change p every time. The cut's valuation, p=2, is the
	// row wire builds; p=4 and p=8 — both visited before the cut — are built
	// at boundaries 4 and 5, and everything after is a hit.
	snap := reg.EngineSnapshot()
	if snap.Rebinds != 6 || snap.RowsBuilt != 2 {
		t.Errorf("resumed run: %d rebinds, %d rows built; want 6 and 2", snap.Rebinds, snap.RowsBuilt)
	}
	var details []string
	for _, ev := range jr.Events() {
		if ev.Kind == obs.EvRebind {
			details = append(details, ev.Detail)
		}
	}
	if want := []string{"row=built", "row=built", "row=hit", "row=hit", "row=hit", "row=hit"}; !slices.Equal(details, want) {
		t.Errorf("rebind events %v, want %v", details, want)
	}
}
