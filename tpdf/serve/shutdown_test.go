package serve

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/tpdf"
)

// waitGoroutines polls until the goroutine count returns to within slack of
// base (engines park and exit asynchronously after drain acks) — a
// hand-rolled goleak: if sessions leaked actors or ring waiters, the count
// never comes back down and the test fails with a stack dump.
func waitGoroutines(t *testing.T, base int, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, started with %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain opens a fleet, keeps pumps in flight, then drains: every
// in-flight pump must complete (sessions stop at barriers, not mid-pump),
// every engine must exit cleanly, and no goroutines may leak.
func TestGracefulDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(Config{MaxSessions: 16, DrainTimeout: 10 * time.Second})
	ctx := ctxT(t)
	g := testGraph(t)

	const fleet = 8
	sessions := make([]*Session, fleet)
	for i := range sessions {
		s, err := m.Open(ctx, "t", g, nil, nil)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		sessions[i] = s
	}

	// Keep a pump in flight on every session while the drain begins.
	var wg sync.WaitGroup
	pumped := make([]int64, fleet)
	pumpErr := make([]error, fleet)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			pumped[i], pumpErr[i] = s.Pump(ctx, 200, nil)
		}(i, s)
	}

	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	for i := range sessions {
		// A pump that raced the drain is answered, never hung: either it ran
		// to completion, or the session stopped at a transaction barrier and
		// acked the partial iteration count (in-flight firings complete; the
		// rest of the pump is shed), or the session closed before accepting.
		if pumpErr[i] != nil && !errors.Is(pumpErr[i], ErrClosed) {
			t.Fatalf("pump %d: %v", i, pumpErr[i])
		}
		if pumpErr[i] == nil && (pumped[i] < 0 || pumped[i] > 200) {
			t.Fatalf("pump %d acked %d iterations, want 0..200", i, pumped[i])
		}
		// Whatever the ack said must match the engine's own final count.
		if pumpErr[i] == nil && sessions[i].Completed() != pumped[i] {
			t.Fatalf("pump %d acked %d but engine completed %d", i, pumped[i], sessions[i].Completed())
		}
	}
	if st := m.Stats(); st.Sessions != 0 || st.Failed != 0 {
		t.Fatalf("after drain: %+v", st)
	}
	// New admissions are refused while shut down.
	if _, err := m.Open(ctx, "t", g, nil, nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("open after drain: %v, want ErrShuttingDown", err)
	}
	waitGoroutines(t, base, 2)
}

// drainMidPump starts a pump of iters iterations on a fresh session, waits
// until its epoch is demonstrably in flight (sink tokens move), drains the
// fleet and checks what a drain landing inside a pump owes: it returns
// within a second — the pump's epoch is cut at the next iteration
// boundary, not run to its end — the pump is acked with a partial count
// that is the engine's own, and the sinks hold exactly what a sequential
// tpdf.Execute of that many iterations delivers. With a chaos spec the
// drain waits until the injected panics have been recovered from, so it
// lands inside the *replayed* pump.
func drainMidPump(t *testing.T, m *Manager, iters int64, chaos *ChaosSpec) (*Session, int64) {
	t.Helper()
	ctx := ctxT(t)
	g := testGraph(t)
	s, err := m.Open(ctx, "t", g, nil, chaos)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	var n int64
	var perr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		n, perr = s.Pump(ctx, iters, nil)
	}()
	for moved := false; !moved; time.Sleep(100 * time.Microsecond) {
		// Restarts first: a restart restores the sinks before it is
		// counted, so tokens read after it are the replay's own.
		restarted := chaos == nil || s.Restarts() == int64(chaos.Panics)
		for _, v := range s.SinkTokens() {
			moved = moved || v > 0
		}
		moved = moved && restarted
	}
	start := time.Now()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("drain inside a %d-iteration pump took %v", iters, d)
	}
	<-done
	if perr != nil {
		t.Fatalf("in-flight pump: %v", perr)
	}
	if n <= 0 || n >= iters {
		t.Fatalf("in-flight pump acked %d iterations, want a partial count", n)
	}
	if got := s.Completed(); got != n {
		t.Fatalf("pump acked %d but the engine completed %d", n, got)
	}
	// The engine stopped at a transaction barrier: the final result exists.
	if s.result == nil {
		t.Fatalf("drained session has no final result (err %v)", s.runErr)
	}

	if got, want := s.SinkTokens(), sinkTotals(t, g, s.sinkNames, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink tokens at %d: session %v, Execute %v", n, got, want)
	}
	return s, n
}

// TestDrainInFlightPumpCompletes: a drain that lands inside a pump far too
// long to finish stops it cleanly at an iteration boundary with a partial
// ack — never an error, never a hang, never the remaining iterations.
func TestDrainInFlightPumpCompletes(t *testing.T) {
	drainMidPump(t, NewManager(Config{DrainTimeout: 10 * time.Second}), 1<<40, nil)
}

// TestPumpHugeIterationCountDrains: a pump may ask for more iterations than
// any firing count can hold; the epoch dispatch counts iterations, so
// nothing wraps, the pump runs, and a drain ends it.
func TestPumpHugeIterationCountDrains(t *testing.T) {
	drainMidPump(t, NewManager(Config{DrainTimeout: 10 * time.Second}), 1<<60, nil)
}

// TestDrainInsideReplayedPump: a pump replayed after a panic is as
// cuttable as the original — Stream restarts the engine from the pump's
// opening cut with the pump's verdict again, drain channel included.
func TestDrainInsideReplayedPump(t *testing.T) {
	m := chaosManager(func(c *Config) { c.DrainTimeout = 10 * time.Second })
	s, _ := drainMidPump(t, m, 1<<40, &ChaosSpec{Seed: 7, Panics: 1, Horizon: 16})
	if s.Panics() != 1 || s.State() != StateDrained {
		t.Fatalf("panics=%d state=%v, want 1 panic and a clean drain", s.Panics(), s.State())
	}
}

// TestDrainInFlightPumpDurable: on a durable session the partial ack is a
// durable one — the newest snapshot on disk is the cut at exactly the
// acked count.
func TestDrainInFlightPumpDurable(t *testing.T) {
	cfg, dir := durableConfig(t)
	s, n := drainMidPump(t, NewManager(cfg), 1<<40, nil)
	store, err := tpdf.OpenSnapshotStore(dir, 3)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	snap, err := store.Load(s.ID)
	if err != nil {
		t.Fatalf("load newest snapshot: %v", err)
	}
	if snap.Checkpoint.Completed != n {
		t.Fatalf("newest snapshot is at %d, pump acked %d", snap.Checkpoint.Completed, n)
	}
}

// TestDrainDeadlineHardCancels: when the drain context is already dead the
// session is cancelled outright instead of waiting for a barrier.
func TestDrainDeadlineHardCancels(t *testing.T) {
	m := NewManager(Config{})
	ctx := ctxT(t)
	s, err := m.Open(ctx, "t", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	// Close must still return (hard cancel path) instead of hanging.
	if _, err := m.Close(dead, s.ID); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("close with dead ctx: %v", err)
	}
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("session engine did not exit after hard cancel")
	}
}

// TestServerShutdownHTTP drives graceful shutdown through the HTTP layer:
// requests in flight finish, the listener closes, the fleet drains, no
// goroutines leak.
func TestServerShutdownHTTP(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{MaxSessions: 8, DrainTimeout: 10 * time.Second})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	var opened openResponse
	if code := doJSON(t, http.MethodPost, "http://"+addr+"/v1/sessions",
		openRequest{Graph: GraphSpec{Builtin: "fig2"}}, &opened); code != http.StatusCreated {
		t.Fatalf("open status = %d", code)
	}
	var pumped pumpResponse
	if code := doJSON(t, http.MethodPost, "http://"+addr+"/v1/sessions/"+opened.ID+"/pump",
		pumpRequest{Iterations: 10}, &pumped); code != http.StatusOK {
		t.Fatalf("pump status = %d", code)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is gone and the fleet is empty.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatalf("server still accepting connections after shutdown")
	}
	if st := s.Manager().Stats(); st.Sessions != 0 {
		t.Fatalf("sessions after shutdown: %d", st.Sessions)
	}
	waitGoroutines(t, base, 3)
}
