package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// TestBoundaryHooksAreExclusive: Boundary, Barrier and Reconfigure are three
// spellings of one hook; setting two is a configuration error.
func TestBoundaryHooksAreExclusive(t *testing.T) {
	_, err := Run(Config{
		Graph:       pipeline(t),
		Boundary:    func(int64) Verdict { return Verdict{Run: 1} },
		Reconfigure: func(int64) map[string]int64 { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want a mutually-exclusive error", err)
	}
}

// observedRun runs reconfGraph under a boundary hook and returns the rates B
// observed per firing, the hook's consultation points and the Barriers
// (epochs) counter.
func observedRun(t *testing.T, iters int64, hook func(int64) Verdict) (observed [][2]int, consulted []int64, epochs int64) {
	t.Helper()
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Graph: reconfGraph(t),
		Behaviors: map[string]runner.Behavior{
			"B": func(f *runner.Firing) error {
				observed = append(observed, [2]int{len(f.In["i0"]), len(f.In["i1"])})
				return nil
			},
		},
		Iterations: iters,
		Metrics:    reg,
		Boundary: func(completed int64) Verdict {
			consulted = append(consulted, completed)
			return hook(completed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Firings["B"]; got != iters {
		t.Fatalf("B fired %d times, want %d", got, iters)
	}
	return observed, consulted, reg.EngineSnapshot().Barriers
}

// TestBoundaryRunLengthIsOneEpoch: a verdict of Run k runs k iterations as
// one epoch — the hook is consulted once per k, the engine crosses one
// barrier per k — and, with parameters changing at the consulted
// boundaries, produces exactly what k one-iteration verdicts do. A Run past
// the remaining iterations is clamped.
func TestBoundaryRunLengthIsOneEpoch(t *testing.T) {
	const iters, k = 14, 4
	params := func(completed int64) map[string]int64 {
		return map[string]int64{"p": 2 + (completed/k)%5}
	}
	ref, refAt, refEpochs := observedRun(t, iters, func(c int64) Verdict {
		if c%k != 0 {
			return Verdict{Run: 1}
		}
		return Verdict{Params: params(c), Run: 1}
	})
	got, gotAt, gotEpochs := observedRun(t, iters, func(c int64) Verdict {
		return Verdict{Params: params(c), Run: k}
	})

	if !reflect.DeepEqual(got, ref) {
		t.Errorf("observed rates differ:\nRun %d %v\nRun 1 %v", k, got, ref)
	}
	if want := []int64{0, 4, 8, 12}; !reflect.DeepEqual(gotAt, want) {
		t.Errorf("Run %d consulted at %v, want %v", k, gotAt, want)
	}
	if len(refAt) != iters || refEpochs != iters || gotEpochs != 4 {
		t.Errorf("consultations %d, epochs Run 1 = %d, Run %d = %d; want %d, %d, 4",
			len(refAt), refEpochs, k, gotEpochs, iters, iters)
	}
}

// TestCutEndsEpochEarly: a fired Cut ends a practically endless epoch at an
// iteration boundary, the hook sees the true completed count there, and the
// state equals a sequential run of exactly that many iterations.
func TestCutEndsEpochEarly(t *testing.T) {
	g := apps.Fig2()
	env := symb.Env{"p": 3}
	cut := make(chan struct{})
	var stoppedAt int64 = -1
	start := time.Now()
	got, err := Run(Config{
		Graph: g, Env: env, Iterations: 1 << 62,
		Boundary: func(completed int64) Verdict {
			if completed == 0 && stoppedAt < 0 {
				stoppedAt = 0
				time.AfterFunc(5*time.Millisecond, func() { close(cut) })
				return Verdict{Run: 1 << 40, Cut: cut}
			}
			stoppedAt = completed
			return Verdict{Stop: true}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cut took %v to end the epoch", d)
	}
	if stoppedAt <= 0 || stoppedAt >= 1<<40 {
		t.Fatalf("hook consulted at %d after the cut, want a partial count", stoppedAt)
	}
	want, err := runner.Run(runner.Config{Graph: g, Env: env, Iterations: stoppedAt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Firings, want.Firings) {
		t.Errorf("firings at %d: engine %v, runner %v", stoppedAt, got.Firings, want.Firings)
	}
	if !reflect.DeepEqual(got.Remaining, want.Remaining) {
		t.Errorf("remaining at %d: engine %v, runner %v", stoppedAt, got.Remaining, want.Remaining)
	}

	// Deterministic under one context: a Cut closed by a behavior during
	// iteration i is seen by context 0 when it starts iteration i+1, so the
	// epoch ends at exactly i+1 completed iterations.
	for _, i := range []int64{0, 6, 99} {
		cut := make(chan struct{})
		var consulted []int64
		res, err := Run(Config{
			Graph: pipeline(t), Iterations: 1 << 62,
			Behaviors: map[string]runner.Behavior{"B": func(f *runner.Firing) error {
				if f.K == i {
					close(cut)
				}
				return nil
			}},
			Boundary: func(completed int64) Verdict {
				consulted = append(consulted, completed)
				if completed == 0 {
					return Verdict{Run: 1 << 40, Cut: cut}
				}
				return Verdict{Stop: true}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{0, i + 1}; !reflect.DeepEqual(consulted, want) {
			t.Errorf("cut in iteration %d: hook consulted at %v, want %v", i, consulted, want)
		}
		if res.Firings["SNK"] != i+1 {
			t.Errorf("cut in iteration %d: SNK fired %d times, want %d", i, res.Firings["SNK"], i+1)
		}
	}
}

// hammerGraph is a chain of n actors with repetition vector 1,2,1,2,...
// (so an iteration is more than one firing for half of them), closed by a
// back edge n2 → n1 carrying two initial tokens.
func hammerGraph(t *testing.T, n int) (*core.Graph, []int64) {
	t.Helper()
	g := core.NewGraph(fmt.Sprintf("hammer%d", n))
	ids := make([]core.NodeID, n)
	q := make([]int64, n)
	for i := range ids {
		ids[i] = g.AddKernel(fmt.Sprintf("N%d", i), 1)
		q[i] = 1 + int64(i%2)
	}
	for i := 0; i+1 < n; i++ {
		prod, cons := "[2]", "[1]"
		if i%2 == 1 {
			prod, cons = "[1]", "[2]"
		}
		if _, err := g.Connect(ids[i], prod, ids[i+1], cons, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect(ids[2], "[2]", ids[1], "[1]", 2); err != nil {
		t.Fatal(err)
	}
	return g, q
}

// TestCutHammer runs many short cuttable epochs whose Cut fires from a
// second goroutine at random delays — including before the epoch is
// dispatched — and checks at every boundary that all actors ended on the
// same iteration: the engine's firing counters (through the boundary's cut) and
// the behaviors' own counts both equal completed × q. Under per-actor
// contexts the cutter, context 0, is one actor among them, deciding while
// the others run. Runs under the race job's -cpu matrix.
func TestCutHammer(t *testing.T) {
	const epochs = 300
	for n := 4; n <= 8; n++ {
		t.Run(fmt.Sprintf("actors=%d", n), func(t *testing.T) {
			for _, workers := range []int{0, n} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { hammerCuts(t, n, workers, epochs) })
			}
		})
	}
}

func hammerCuts(t *testing.T, n, workers, epochs int) {
	g, q := hammerGraph(t, n)
	rng := rand.New(rand.NewSource(int64(n)))
	counts := make([]atomic.Int64, n)
	behaviors := map[string]runner.Behavior{}
	for i := 0; i < n; i += 2 { // odd actors stay token-only
		c := &counts[i]
		behaviors[g.Nodes[i].Name] = func(*runner.Firing) error { c.Add(1); return nil }
	}
	var entry []int64
	var consulted, short int
	var last, asked int64
	res, err := Run(Config{
		Graph: g, Behaviors: behaviors, Iterations: 1 << 62, Workers: workers,
		CheckpointSink: func(ck *Checkpoint) { entry = append(entry[:0], ck.Fired...) },
		Boundary: func(completed int64) Verdict {
			for i := range q {
				if entry[i] != completed*q[i] {
					t.Errorf("boundary %d: actor %d fired %d, want %d", completed, i, entry[i], completed*q[i])
				}
				if i%2 == 0 && counts[i].Load() != completed*q[i] {
					t.Errorf("boundary %d: behavior %d ran %d times, want %d", completed, i, counts[i].Load(), completed*q[i])
				}
			}
			if completed < last+asked {
				short++
			}
			if consulted++; consulted > epochs || t.Failed() {
				last = completed
				return Verdict{Stop: true}
			}
			cut := make(chan struct{})
			delay := time.Duration(rng.Intn(60)) * time.Microsecond
			if delay == 0 {
				close(cut)
			} else {
				time.AfterFunc(delay, func() { close(cut) })
			}
			last, asked = completed, 1+int64(rng.Intn(200))
			return Verdict{Run: asked, Cut: cut}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d epochs cut short, %d iterations", short, epochs, last)
	if short == 0 {
		t.Errorf("no epoch of %d was cut short", epochs)
	}
	for i, node := range g.Nodes {
		if got := res.Firings[node.Name]; got != last*q[i] {
			t.Errorf("final: %s fired %d, want %d", node.Name, got, last*q[i])
		}
	}
}

// TestHugeIterationCountDoesNotWrap: the epoch dispatch counts iterations,
// so a practically unbounded horizon cannot wrap an iters × q product to a
// non-positive firing total (which starved actors with q ≥ 4 into a
// spurious deadlock report, or "completed" a run with zero firings). Every
// node of every builtin must fire until the cancellation lands.
func TestHugeIterationCountDoesNotWrap(t *testing.T) {
	for name, g := range map[string]*core.Graph{
		"fig2":         apps.Fig2(),
		"fig4a":        apps.Fig4a(),
		"fig4b":        apps.Fig4b(),
		"ofdm":         apps.OFDMTPDF(apps.DefaultOFDM()),
		"ofdm-csdf":    apps.OFDMCSDF(apps.DefaultOFDM()),
		"edge":         apps.EdgeDetection(500, nil).Graph,
		"fmradio":      apps.FMRadioTPDF(),
		"fmradio-csdf": apps.FMRadioCSDF(),
		"vc1":          apps.VC1Decoder(),
		"avc-me":       apps.MotionEstimation(500, 60, 15).Graph,
	} {
		t.Run(name, func(t *testing.T) {
			counts := make([]atomic.Int64, len(g.Nodes))
			behaviors := map[string]runner.Behavior{}
			for i, node := range g.Nodes {
				c := &counts[i]
				behaviors[node.Name] = func(*runner.Firing) error { c.Add(1); return nil }
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: 1 << 62, Context: ctx})
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the context's", err)
			}
			for i, node := range g.Nodes {
				if counts[i].Load() == 0 {
					t.Errorf("%s never fired", node.Name)
				}
			}
		})
	}
}
