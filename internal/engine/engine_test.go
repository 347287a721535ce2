package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/symb"
)

// pipeline builds SRC -> A -> B -> SNK with unit rates.
func pipeline(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph("pipe")
	src := g.AddKernel("SRC", 1)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	snk := g.AddKernel("SNK", 1)
	for _, pair := range [][2]core.NodeID{{src, a}, {a, b}, {b, snk}} {
		if _, err := g.Connect(pair[0], "[1]", pair[1], "[1]", 0); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// pipelineBehaviors threads an integer through the chain, each stage adding
// its own offset, and captures the sink values.
func pipelineBehaviors(captured *[]int) map[string]runner.Behavior {
	return map[string]runner.Behavior{
		"SRC": func(f *runner.Firing) error {
			f.Produce("o0", int(f.K))
			return nil
		},
		"A": func(f *runner.Firing) error {
			f.Produce("o0", f.In["i0"][0].(int)*10)
			return nil
		},
		"B": func(f *runner.Firing) error {
			f.Produce("o0", f.In["i0"][0].(int)+1)
			return nil
		},
		"SNK": func(f *runner.Firing) error {
			*captured = append(*captured, f.In["i0"][0].(int))
			return nil
		},
	}
}

func TestRunMatchesRunnerOnPayloadPipeline(t *testing.T) {
	g := pipeline(t)

	var seq []int
	want, err := runner.Run(runner.Config{Graph: g, Behaviors: pipelineBehaviors(&seq), Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}

	var conc []int
	got, err := Run(Config{Graph: g, Behaviors: pipelineBehaviors(&conc), Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.Firings, got.Firings) {
		t.Errorf("firings: runner %v, engine %v", want.Firings, got.Firings)
	}
	if !reflect.DeepEqual(want.Remaining, got.Remaining) {
		t.Errorf("remaining: runner %v, engine %v", want.Remaining, got.Remaining)
	}
	if !reflect.DeepEqual(seq, conc) {
		t.Errorf("payload streams differ:\nrunner %v\nengine %v", seq, conc)
	}
}

func TestRunMatchesRunnerOnMultirateApps(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *core.Graph
		env  symb.Env
	}{
		{"fig2", apps.Fig2(), symb.Env{"p": 3}},
		{"ofdm", apps.OFDMTPDF(apps.DefaultOFDM()), nil},
		{"fmradio", apps.FMRadioTPDF(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := runner.Run(runner.Config{Graph: tc.g, Env: tc.env, Iterations: 3})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(Config{Graph: tc.g, Env: tc.env, Iterations: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Firings, got.Firings) {
				t.Errorf("firings: runner %v, engine %v", want.Firings, got.Firings)
			}
			if !reflect.DeepEqual(want.Remaining, got.Remaining) {
				t.Errorf("remaining: runner %v, engine %v", want.Remaining, got.Remaining)
			}
		})
	}
}

// TestReconfigureAtTransactionBoundaries drives a graph whose two parallel
// edges both carry p tokens per firing and reconfigures p between
// iterations: every firing must observe the same p on both ports (no mixed
// environment), following exactly the schedule of values the hook applied.
func TestReconfigureAtTransactionBoundaries(t *testing.T) {
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

	plan := []int64{2, 5, 5, 3} // p per iteration
	var observed [][2]int
	behaviors := map[string]runner.Behavior{
		"B": func(f *runner.Firing) error {
			observed = append(observed, [2]int{len(f.In["i0"]), len(f.In["i1"])})
			return nil
		},
	}
	res, err := Run(Config{
		Graph:      g,
		Env:        symb.Env{"p": plan[0]},
		Behaviors:  behaviors,
		Iterations: int64(len(plan)),
		Reconfigure: func(completed int64) map[string]int64 {
			return map[string]int64{"p": plan[completed]}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings["B"] != int64(len(plan)) {
		t.Fatalf("B fired %d times, want %d", res.Firings["B"], len(plan))
	}
	for i, ob := range observed {
		if ob[0] != ob[1] {
			t.Errorf("firing %d observed mixed environment: %d vs %d tokens", i, ob[0], ob[1])
		}
		if int64(ob[0]) != plan[i] {
			t.Errorf("firing %d observed p=%d, want %d", i, ob[0], plan[i])
		}
	}
	if len(res.Remaining) != 0 {
		t.Errorf("unexpected leftovers: %v", res.Remaining)
	}
}

// TestReconfigureChangesTheSchedule rebinds a parameter the repetition
// vector depends on (A[p] -> B[1]: q = [A:1, B:p]), so every changed
// boundary has a different PASS: the one context must walk the new order,
// not the one it was wired with, and both clusterings must deliver the same
// payload stream.
func TestReconfigureChangesTheSchedule(t *testing.T) {
	g := core.NewGraph("requeue")
	g.AddParam("p", 2, 1, 8)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	if _, err := g.Connect(a, "[p]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	plan := []int64{2, 5, 1, 3} // p per iteration
	var want []any
	for it, p := range plan {
		for i := int64(0); i < p; i++ {
			want = append(want, it*10+int(i))
		}
	}
	for _, workers := range []int{0, 2} {
		var got []any
		behaviors := map[string]runner.Behavior{
			"A": func(f *runner.Firing) error {
				for i := int64(0); i < plan[f.K]; i++ {
					f.Produce("o0", int(f.K)*10+int(i))
				}
				return nil
			},
			"B": func(f *runner.Firing) error {
				got = append(got, f.In["i0"][0])
				return nil
			},
		}
		res, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: int64(len(plan)), Workers: workers,
			Reconfigure: func(completed int64) map[string]int64 {
				return map[string]int64{"p": plan[completed]}
			}})
		if err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers %d: B saw %v, want %v", workers, got, want)
		}
		if res.Firings["A"] != int64(len(plan)) || res.Firings["B"] != int64(len(want)) {
			t.Errorf("Workers %d: firings %v, want A:%d B:%d", workers, res.Firings, len(plan), len(want))
		}
	}
}

// TestReconfigureCarriesLeftoverTokens checks that payloads parked on an
// edge across a reconfiguration boundary survive the channel rebuild in
// FIFO order: three initial tokens keep a 3-deep backlog on e1, so values
// produced in iteration i only reach B three iterations later, across the
// parameter changes in between.
func TestReconfigureCarriesLeftoverTokens(t *testing.T) {
	g := core.NewGraph("carry")
	g.AddParam("p", 1, 1, 8)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	if _, err := g.Connect(a, "[1]", b, "[1]", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, "[p]", b, "[p]", 0); err != nil {
		t.Fatal(err)
	}

	var got []any
	behaviors := map[string]runner.Behavior{
		"A": func(f *runner.Firing) error {
			f.Produce("o0", int(f.K))
			return nil
		},
		"B": func(f *runner.Firing) error {
			got = append(got, f.In["i0"][0])
			return nil
		},
	}
	res, err := Run(Config{
		Graph:      g,
		Behaviors:  behaviors,
		Iterations: 5,
		Reconfigure: func(completed int64) map[string]int64 {
			return map[string]int64{"p": completed + 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// B drains the FIFO: the three initial nils, then A's first values.
	want := []any{nil, nil, nil, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("payloads across boundaries: got %v, want %v", got, want)
	}
	if !reflect.DeepEqual(res.Remaining["e1"], []any{2, 3, 4}) {
		t.Errorf("backlog: got %v, want [2 3 4]", res.Remaining["e1"])
	}
}

func TestContextCancellation(t *testing.T) {
	g := pipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snkFirings int64
	behaviors := map[string]runner.Behavior{
		"B": func(f *runner.Firing) error {
			if f.K == 0 {
				cancel()
			}
			return nil
		},
		"SNK": func(f *runner.Firing) error {
			snkFirings++
			return nil
		},
	}
	// cancel runs inside B's first firing, on the goroutine that called Run
	// (the one context); the run stops once context.AfterFunc's goroutine
	// has failed it. The horizon must outlast that goroutine's scheduling
	// however loaded the machine: 10,000 iterations take a few milliseconds
	// on one context and used to lose that race.
	const iters = 50_000_000
	_, err := Run(Config{Graph: g, Context: ctx, Behaviors: behaviors, Iterations: iters})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if snkFirings == iters {
		t.Error("cancellation did not stop the run early")
	}
}

func TestBehaviorErrorAbortsRun(t *testing.T) {
	g := pipeline(t)
	boom := errors.New("boom")
	behaviors := map[string]runner.Behavior{
		"A": func(f *runner.Firing) error {
			if f.K == 3 {
				return boom
			}
			return nil
		},
	}
	_, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: 50})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("got %v, want the behavior error", err)
	}
}

// fan builds the 6-actor SRC -> {W0..W3} -> SNK with unit rates.
func fan(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph("fan")
	src := g.AddKernel("SRC", 1)
	snk := g.AddKernel("SNK", 1)
	for i := 0; i < 4; i++ {
		w := g.AddKernel(fmt.Sprintf("W%d", i), 1)
		if _, err := g.Connect(src, "[1]", w, "[1]", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Connect(w, "[1]", snk, "[1]", 0); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestDefaultRunIsOneContext pins the clustering rule by what it costs in
// goroutines: parked in a boundary hook after a completed epoch, a default
// run of six actors holds no goroutine besides the caller's (its one
// context runs there, a one-context run has no stall watchdog, and a
// cancellable Context is watched through context.AfterFunc, not by a
// goroutine), while a run that asked for concurrent behaviors holds exactly
// one per actor but the first (context 0 is the caller's) plus the
// watchdog — and both give them all back.
func TestDefaultRunIsOneContext(t *testing.T) {
	g := fan(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		workers int
		held    int
	}{{0, 0}, {1, 0}, {6, len(g.Nodes) - 1 + 1}} {
		// Goroutines of earlier runs exit after their Run returned: wait
		// until the count has been quiet for 20 reads.
		baseline := runtime.NumGoroutine()
		for quiet := 0; quiet < 20; quiet++ {
			time.Sleep(time.Millisecond)
			if n := runtime.NumGoroutine(); n != baseline {
				baseline, quiet = n, 0
			}
		}
		held := -1
		res, err := Run(Config{Graph: g, Context: ctx, Iterations: 4, Workers: tc.workers,
			Boundary: func(completed int64) Verdict {
				if completed == 2 {
					held = runtime.NumGoroutine() - baseline
				}
				return Verdict{Run: 2}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Firings["SNK"] != 4 {
			t.Errorf("Workers %d: SNK fired %d times, want 4", tc.workers, res.Firings["SNK"])
		}
		if held != tc.held {
			t.Errorf("Workers %d: run holds %d goroutines at a boundary, want %d", tc.workers, held, tc.held)
		}
		waitGoroutines(t, baseline)
	}
}

func TestWorkersBoundsConcurrency(t *testing.T) {
	g := fan(t)

	var cur, peak atomic.Int64
	var mu sync.Mutex
	behaviors := map[string]runner.Behavior{}
	for i := 0; i < 4; i++ {
		behaviors[fmt.Sprintf("W%d", i)] = func(f *runner.Firing) error {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			f.Produce("o0", nil)
			return nil
		}
	}
	res, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings["SNK"] != 8 {
		t.Fatalf("SNK fired %d times, want 8", res.Firings["SNK"])
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("observed %d concurrent behaviors, want <= 2", p)
	}
}

// TestPipelineOverlapsLatency checks the point of per-actor contexts: asked
// for concurrent behaviors (Workers > 1), a pipeline of latency-bound stages
// must finish in wall-clock time far below the sequential sum of its stage
// latencies.
func TestPipelineOverlapsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short")
	}
	g := pipeline(t)
	const delay = 2 * time.Millisecond
	const iters = 40
	behaviors := map[string]runner.Behavior{}
	for _, name := range []string{"SRC", "A", "B", "SNK"} {
		behaviors[name] = func(f *runner.Firing) error {
			time.Sleep(delay)
			if len(f.In) > 0 {
				f.Produce("o0", f.In["i0"][0])
			} else {
				f.Produce("o0", nil)
			}
			return nil
		}
	}
	start := time.Now()
	if _, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: iters, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	sequential := 4 * iters * delay
	if elapsed > sequential*3/4 {
		t.Errorf("pipeline took %v, not meaningfully below the sequential %v", elapsed, sequential)
	}
}
