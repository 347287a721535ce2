package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/tpdf"
)

// sinkTotals is what a sequential tpdf.Execute of n iterations of g
// delivers to each of the named sinks.
func sinkTotals(t *testing.T, g *tpdf.Graph, sinks []string, n int64) map[string]int64 {
	t.Helper()
	want := map[string]int64{}
	count := map[string]tpdf.Behavior{}
	for _, name := range sinks {
		count[name] = func(f *tpdf.Firing) error {
			for _, vals := range f.In {
				want[name] += int64(len(vals))
			}
			return nil
		}
	}
	if _, err := tpdf.Execute(g, count, tpdf.WithIterations(n)); err != nil {
		t.Fatalf("execute %d iterations: %v", n, err)
	}
	return want
}

// serveJSON sends one request through h in process and decodes a 2xx
// answer into resp.
func serveJSON(h http.Handler, method, path string, req, resp any) (int, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	if rec.Code < 300 && resp != nil {
		err = json.NewDecoder(rec.Body).Decode(resp)
	}
	return rec.Code, err
}

// TestAckSinkTokensMatchAckBoundary: a pump ack's sink_tokens are the
// totals at the boundary it acks, even while another client pumps the
// same session — each ack must read per-iteration totals × completed.
func TestAckSinkTokensMatchAckBoundary(t *testing.T) {
	srv := New(Config{DrainTimeout: 10 * time.Second})
	t.Cleanup(func() { srv.m.Drain(context.Background()) }) //nolint:errcheck // fleet cleanup
	h := srv.Handler()
	var opened openResponse
	if code, err := serveJSON(h, http.MethodPost, "/v1/sessions",
		openRequest{Graph: GraphSpec{Builtin: "fig2"}}, &opened); code != http.StatusCreated || err != nil {
		t.Fatalf("open: status %d, %v", code, err)
	}
	sess, err := srv.m.Get(opened.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	per := sinkTotals(t, testGraph(t), sess.sinkNames, 1)

	const clients, pumps = 2, 3000
	var mismatches atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pumps {
				var ack pumpResponse
				code, err := serveJSON(h, http.MethodPost, "/v1/sessions/"+opened.ID+"/pump",
					pumpRequest{Iterations: int64(1 + (c+i)%3)}, &ack)
				if code != http.StatusOK || err != nil {
					t.Errorf("client %d pump %d: status %d, %v", c, i, code, err)
					return
				}
				for name, v := range per {
					if ack.SinkTokens[name] != v*ack.Completed {
						mismatches.Add(1)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d of %d acks carry sink tokens of another boundary", n, clients*pumps)
	}
}

type pumpResult struct {
	n   int64
	err error
	// late: ctx had ended by the time Pump returned.
	late bool
}

// inFlight starts a pump of iters iterations under ctx and returns once
// its epoch is demonstrably running (sink tokens move) or the pump has
// already returned; the channel delivers the pump's result.
func inFlight(s *Session, ctx context.Context, iters int64) chan pumpResult {
	before := s.SinkTokens()
	res := make(chan pumpResult, 1)
	go func() {
		n, err := s.Pump(ctx, iters, nil)
		res <- pumpResult{n, err, ctx.Err() != nil}
	}()
	for len(res) == 0 && reflect.DeepEqual(s.SinkTokens(), before) {
		time.Sleep(50 * time.Microsecond)
	}
	return res
}

// TestTurnContext pins the Context semantics of the session's turn: a Pump
// or Reconfigure whose Context ends while another pump holds the turn
// returns ctx.Err() promptly, and the session pumps correctly afterwards;
// a pump whose Context ends while its own epoch runs finishes the epoch,
// because its caller is the engine. A pump that returned before the
// waiters gave up (or before its cancel) proves nothing, so each part
// retries with a longer one.
func TestTurnContext(t *testing.T) {
	m := NewManager(Config{DrainTimeout: 10 * time.Second})
	t.Cleanup(func() { m.Drain(context.Background()) }) //nolint:errcheck // fleet cleanup
	g := testGraph(t)
	s, err := m.Open(ctxT(t), "t", g, nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var total int64
	checkAck := func(r pumpResult) {
		t.Helper()
		if r.err != nil || r.n != total {
			t.Fatalf("pump acked %d, %v; want %d", r.n, r.err, total)
		}
		if got, want := s.SinkTokens(), sinkTotals(t, g, s.sinkNames, total); !reflect.DeepEqual(got, want) {
			t.Fatalf("sink tokens at %d: session %v, Execute %v", total, got, want)
		}
	}
	// p=2 is fig2's default: a waiter that does get the turn changes
	// nothing but the count.
	same := map[string]int64{"p": 2}

	for iters := int64(1 << 12); ; iters *= 4 {
		res := inFlight(s, context.Background(), iters)
		wctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, pumpErr := s.Pump(wctx, 1, nil)
		reconfErr := s.Reconfigure(wctx, same)
		waited := time.Since(start)
		cancel()
		r := <-res
		total += iters
		if r.err != nil || r.n != total {
			t.Fatalf("holder pump acked %d, %v; want %d", r.n, r.err, total)
		}
		for _, err := range []error{pumpErr, reconfErr} {
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter on the turn: %v, want nil or ctx.Err()", err)
			}
		}
		if pumpErr != nil && reconfErr != nil {
			// Both gave up, so the holder held the turn past the deadline.
			if waited > time.Second {
				t.Fatalf("waiters on a held turn took %v to give up", waited)
			}
			break
		}
		if pumpErr == nil {
			total++
		}
		if iters > 1<<24 {
			t.Fatalf("a %d-iteration pump never outlasted a 5ms wait", iters)
		}
	}
	n, err := s.Pump(ctxT(t), 3, nil)
	total += 3
	checkAck(pumpResult{n: n, err: err})

	for iters := int64(1 << 12); ; iters *= 4 {
		ctx, cancel := context.WithCancel(context.Background())
		res := inFlight(s, ctx, iters)
		cancel()
		r := <-res
		total += iters
		checkAck(r)
		if r.late {
			break
		}
		if iters > 1<<24 {
			t.Fatalf("a %d-iteration pump never outlasted its own cancel", iters)
		}
	}
}

// TestEscapedPanicFailsSession: a panic outside any behavior (here the
// sink snapshot the engine takes at every boundary, broken by emptying its
// buffer) escapes Stream. It must become the session's failure where the
// engine runs — not a crash of whoever pumped — release the turn, answer
// later commands promptly with the run error, and let Drain return
// without leaking a goroutine.
func TestEscapedPanicFailsSession(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(Config{DrainTimeout: 10 * time.Second})
	ctx := ctxT(t)
	s, err := m.Open(ctx, "t", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.snapSinks = nil // the next capture indexes past it
	if _, err := s.Pump(ctx, 2, nil); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("pump into a panicking capture: %v, want the escaped panic", err)
	}
	if st := s.State(); st != StateFailed {
		t.Fatalf("state after an escaped panic = %v, want failed", st)
	}
	prompt, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := s.Pump(prompt, 1, nil); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pump after the failure: %v, want the run error", err)
	}
	if err := s.Reconfigure(prompt, map[string]int64{"p": 3}); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("reconfigure after the failure: %v, want the run error", err)
	}
	if err := m.Drain(ctx); err == nil {
		t.Fatalf("drain of a failed session reported no error")
	}
	waitGoroutines(t, base, 2)
}
