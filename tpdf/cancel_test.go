package tpdf_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/tpdf"
	"repro/tpdf/obs"
)

// TestStreamCancelUnparksRingWait pins the cancellation latency of actors
// parked inside the ring transport: under per-actor contexts the derived
// capacity of A[1] -> B[1] is one token, so with a slow consumer the
// producer spends nearly all its time blocked in a ring write wait —
// cancelling the run context must unpark it and return promptly, not after
// the consumer drains the backlog.
func TestStreamCancelUnparksRingWait(t *testing.T) {
	g, err := tpdf.NewGraph("cancel").
		Kernel("A", 1).Kernel("B", 1).
		Connect("A[1] -> B[1]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	behaviors := map[string]tpdf.Behavior{
		"A": func(f *tpdf.Firing) error {
			f.Produce("o0", 1)
			return nil
		},
		"B": func(f *tpdf.Firing) error {
			time.Sleep(5 * time.Millisecond)
			return nil
		},
	}

	// The premise, read from the registry: the ring holds one token and A,
	// its producer, parks on it.
	reg := obs.NewRegistry()
	if _, err := tpdf.Stream(g, behaviors, tpdf.WithIterations(8), tpdf.WithWorkers(2), tpdf.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if snap := reg.EngineSnapshot(); len(snap.Edges) != 1 || snap.Edges[0].Capacity != 1 || snap.Actors[0].Name != "A" || snap.Actors[0].Parks == 0 {
		t.Fatalf("want A parked on a 1-token ring, got %+v / %+v", snap.Actors, snap.Edges)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = tpdf.Stream(g, behaviors,
		tpdf.WithIterations(100_000),
		tpdf.WithWorkers(2),
		tpdf.WithContext(ctx))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream returned %v, want context.Canceled", err)
	}
	// 100k iterations at 5ms each is ~8 minutes of backlog; a prompt
	// unpark returns within the current firing plus scheduling noise. The
	// bound is generous for loaded CI runners while still catching a
	// drain-the-backlog regression by orders of magnitude.
	if elapsed > 2*time.Second {
		t.Fatalf("Stream took %v to honor cancellation (ring-wait unpark regressed)", elapsed)
	}
}

// TestStreamCancelUnparksBarrierHook covers the service tier's park point:
// an engine blocked inside a Barrier hook (a parked session waiting for
// its next command) must still shut down promptly when the hook honors the
// run context — the engine re-checks for cancellation as soon as the hook
// returns.
func TestStreamCancelUnparksBarrierHook(t *testing.T) {
	g, err := tpdf.NewGraph("park").
		Kernel("A", 1).Kernel("B", 1).
		Connect("A[1] -> B[1]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = tpdf.Stream(g, nil,
		tpdf.WithIterations(100_000),
		tpdf.WithContext(ctx),
		tpdf.WithBarrier(func(completed int64) (map[string]int64, bool) {
			if completed < 3 {
				return nil, false // a short pump, then park
			}
			<-ctx.Done() // parked: zero CPU until cancelled
			return nil, true
		}))
	elapsed := time.Since(start)
	// A hook that stops after observing cancellation yields a clean drain
	// (nil error); an engine that notices ctx first reports Canceled. Both
	// are prompt shutdowns — what must not happen is a hang or a late exit.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream returned %v, want nil or context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Stream took %v to exit a parked barrier hook", elapsed)
	}
}
