package tpdf_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/tpdf"
)

// TestStreamMatchesExecuteOnBuiltins is the engine's determinism contract:
// for every built-in application graph, the concurrent Stream must produce
// exactly the firing counts and leftover channel contents of the
// sequential Execute.
func TestStreamMatchesExecuteOnBuiltins(t *testing.T) {
	for _, name := range tpdf.BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			s, err := tpdf.BuiltinScenario(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tpdf.Execute(s.Graph, nil, tpdf.WithIterations(3))
			if err != nil {
				t.Fatal(err)
			}
			got, err := tpdf.Stream(s.Graph, nil, tpdf.WithIterations(3))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Firings, got.Firings) {
				t.Errorf("firings: Execute %v, Stream %v", want.Firings, got.Firings)
			}
			if !reflect.DeepEqual(want.Remaining, got.Remaining) {
				t.Errorf("remaining: Execute %v, Stream %v", want.Remaining, got.Remaining)
			}
		})
	}
}

// payloadPipeline builds the 5-stage payload pipeline and behaviors that
// push real integers through it, capturing what the sink sees.
func payloadPipeline(captured *[]int) (*tpdf.Graph, map[string]tpdf.Behavior) {
	g := tpdf.OFDMPayloadGraph()
	passthrough := func(f *tpdf.Firing) error {
		f.Produce("o0", f.In["i0"][0])
		return nil
	}
	behaviors := map[string]tpdf.Behavior{
		"SRC": func(f *tpdf.Firing) error {
			f.Produce("o0", int(f.K)*3)
			return nil
		},
		"RCP": passthrough,
		"FFT": func(f *tpdf.Firing) error {
			f.Produce("o0", f.In["i0"][0].(int)+1)
			return nil
		},
		"QAM": passthrough,
		"SNK": func(f *tpdf.Firing) error {
			*captured = append(*captured, f.In["i0"][0].(int))
			return nil
		},
	}
	return g, behaviors
}

// TestStreamMatchesExecutePayloads compares the value streams themselves,
// not just the token accounting.
func TestStreamMatchesExecutePayloads(t *testing.T) {
	var seq, conc []int
	g, behaviors := payloadPipeline(&seq)
	if _, err := tpdf.Execute(g, behaviors, tpdf.WithIterations(64)); err != nil {
		t.Fatal(err)
	}
	g2, behaviors2 := payloadPipeline(&conc)
	if _, err := tpdf.Stream(g2, behaviors2, tpdf.WithIterations(64)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, conc) {
		t.Errorf("payload streams differ:\nExecute %v\nStream  %v", seq, conc)
	}
}

// TestStreamReconfigure exercises the transaction semantics through the
// facade: a parametric two-port join must observe consistent rates on both
// ports in every firing, following the reconfiguration plan exactly.
func TestStreamReconfigure(t *testing.T) {
	g, err := tpdf.NewGraph("reconf").
		Param("p", 2, 1, 8).
		Kernel("A", 1).
		Kernel("B", 1).
		Connect("A[p] -> B[p]").
		Connect("A[p] -> B[p]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := []int64{2, 7, 3}
	var observed [][2]int
	behaviors := map[string]tpdf.Behavior{
		"B": func(f *tpdf.Firing) error {
			observed = append(observed, [2]int{len(f.In["i0"]), len(f.In["i1"])})
			return nil
		},
	}
	_, err = tpdf.Stream(g, behaviors,
		tpdf.WithParam("p", plan[0]),
		tpdf.WithIterations(int64(len(plan))),
		tpdf.WithReconfigure(func(completed int64) map[string]int64 {
			return map[string]int64{"p": plan[completed]}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != len(plan) {
		t.Fatalf("observed %d firings, want %d", len(observed), len(plan))
	}
	for i, ob := range observed {
		if ob[0] != ob[1] || int64(ob[0]) != plan[i] {
			t.Errorf("firing %d observed rates %v, want [%d %d]", i, ob, plan[i], plan[i])
		}
	}
}

func TestStreamContextCancellation(t *testing.T) {
	g, behaviors := payloadPipeline(new([]int))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	behaviors["FFT"] = func(f *tpdf.Firing) error {
		if f.K == 0 {
			cancel()
		}
		f.Produce("o0", 0)
		return nil
	}
	_, err := tpdf.Stream(g, behaviors, tpdf.WithIterations(100000), tpdf.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream returned %v, want context.Canceled", err)
	}
}

// TestExecuteContextCancellation covers the satellite fix: Execute now
// honors WithContext like Simulate does.
func TestExecuteContextCancellation(t *testing.T) {
	g, behaviors := payloadPipeline(new([]int))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	behaviors["FFT"] = func(f *tpdf.Firing) error {
		if f.K == 0 {
			cancel()
		}
		f.Produce("o0", 0)
		return nil
	}
	_, err := tpdf.Execute(g, behaviors, tpdf.WithIterations(100000), tpdf.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
}

func TestStreamWorkersOption(t *testing.T) {
	var seq, conc []int
	g, behaviors := payloadPipeline(&seq)
	if _, err := tpdf.Execute(g, behaviors, tpdf.WithIterations(32)); err != nil {
		t.Fatal(err)
	}
	g2, behaviors2 := payloadPipeline(&conc)
	if _, err := tpdf.Stream(g2, behaviors2, tpdf.WithIterations(32), tpdf.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, conc) {
		t.Errorf("WithWorkers(1) changed the payload stream")
	}
}

func TestStreamChannelCapacityOverride(t *testing.T) {
	var conc []int
	g, behaviors := payloadPipeline(&conc)
	res, err := tpdf.Stream(g, behaviors, tpdf.WithIterations(16), tpdf.WithChannelCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings["SNK"] != 16 || len(conc) != 16 {
		t.Fatalf("capacity-1 run incomplete: firings %v, captured %d", res.Firings, len(conc))
	}
}

// TestStreamStallTimeout covers the WithStallTimeout option: an undersized
// channel capacity deadlocks this diamond (B waits for M's token before
// draining the direct edge, but A only feeds M on its second phase, after
// a second direct-edge write the full capacity-1 ring refuses), and the
// watchdog must surface the deadlock diagnostic within the configured
// window instead of the 1s default.
func TestStreamStallTimeout(t *testing.T) {
	g, err := tpdf.NewGraph("stall").
		Kernel("A", 1).Kernel("M", 1).Kernel("B", 1).
		Connect("M[1] -> B[1,0]").
		Connect("A[1] -> B[1]").
		Connect("A[0,1] -> M[1]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const window = 25 * time.Millisecond
	start := time.Now()
	_, err = tpdf.Stream(g, nil,
		tpdf.WithChannelCapacity(1),
		tpdf.WithStallTimeout(window))
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("got %v, want a deadlock diagnostic", err)
	}
	// Two idle windows trip the watchdog; anything near the 1s default
	// means the option was not plumbed through.
	if elapsed > 20*window {
		t.Errorf("watchdog took %v with a %v window", elapsed, window)
	}
}

// TestStreamUnchangedReconfigureMatchesPlain is the facade half of the
// reconfigure-churn fix: a hook that never changes anything must yield
// exactly the plain Stream payload sequence and accounting.
func TestStreamUnchangedReconfigureMatchesPlain(t *testing.T) {
	var plain, hooked []int
	g, behaviors := payloadPipeline(&plain)
	want, err := tpdf.Stream(g, behaviors, tpdf.WithIterations(64))
	if err != nil {
		t.Fatal(err)
	}
	g2, behaviors2 := payloadPipeline(&hooked)
	got, err := tpdf.Stream(g2, behaviors2, tpdf.WithIterations(64),
		tpdf.WithReconfigure(func(completed int64) map[string]int64 { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Firings, got.Firings) || !reflect.DeepEqual(want.Remaining, got.Remaining) {
		t.Errorf("unchanged-reconfigure accounting diverged: %v/%v vs %v/%v",
			want.Firings, want.Remaining, got.Firings, got.Remaining)
	}
	if !reflect.DeepEqual(plain, hooked) {
		t.Errorf("unchanged-reconfigure payload stream diverged:\nplain  %v\nhooked %v", plain, hooked)
	}
}

// latencyStage simulates an I/O-bound stage (a sensor read, a network hop):
// the dominant cost is waiting, which is what a concurrent pipeline
// overlaps and a sequential schedule serializes.
func latencyStage(d time.Duration) tpdf.Behavior {
	return func(f *tpdf.Firing) error {
		time.Sleep(d)
		if in := f.In["i0"]; len(in) > 0 {
			f.Produce("o0", in[0])
		} else {
			f.Produce("o0", int(f.K))
		}
		return nil
	}
}

func latencyBehaviors(g *tpdf.Graph, d time.Duration) map[string]tpdf.Behavior {
	b := map[string]tpdf.Behavior{}
	for _, n := range g.Nodes {
		b[n.Name] = latencyStage(d)
	}
	return b
}

// TestStreamFasterThanExecute asserts the acceptance criterion directly:
// on a multi-actor graph with non-trivial (latency-bound) behaviors the
// engine asked for concurrent behaviors (WithWorkers: one goroutine per
// actor) beats the sequential runner.
func TestStreamFasterThanExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short")
	}
	g := tpdf.OFDMPayloadGraph()
	const delay = 2 * time.Millisecond
	const iters = 32

	start := time.Now()
	if _, err := tpdf.Execute(g, latencyBehaviors(g, delay), tpdf.WithIterations(iters)); err != nil {
		t.Fatal(err)
	}
	sequential := time.Since(start)

	start = time.Now()
	if _, err := tpdf.Stream(g, latencyBehaviors(g, delay), tpdf.WithIterations(iters),
		tpdf.WithWorkers(len(g.Nodes))); err != nil {
		t.Fatal(err)
	}
	concurrent := time.Since(start)

	if concurrent >= sequential {
		t.Errorf("Stream (%v) not faster than Execute (%v)", concurrent, sequential)
	}
	t.Logf("sequential %v, concurrent %v, speedup %.2fx", sequential, concurrent,
		float64(sequential)/float64(concurrent))
}

// BenchmarkStream compares the two payload executors on the same
// latency-bound 5-stage pipeline; the ns/op ratio is the pipeline speedup
// (`go test -bench=Stream`).
func BenchmarkStream(b *testing.B) {
	g := tpdf.OFDMPayloadGraph()
	const delay = 500 * time.Microsecond
	const iters = 16
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpdf.Execute(g, latencyBehaviors(g, delay), tpdf.WithIterations(iters)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpdf.Stream(g, latencyBehaviors(g, delay), tpdf.WithIterations(iters)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
