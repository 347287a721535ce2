package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/tpdf"
	"repro/tpdf/obs"
)

// chaosManager builds a manager with fault injection enabled.
func chaosManager(extra func(*Config)) *Manager {
	cfg := Config{EnableChaos: true}
	if extra != nil {
		extra(&cfg)
	}
	return NewManager(cfg)
}

// TestSessionPanicRecovery injects a behavior panic into one session and
// checks that the supervisor restarts its engine from the last barrier
// checkpoint: the in-flight pump completes as if nothing happened, the
// session returns to Running, and the restart is visible on the session,
// the fleet, and the session's records.
func TestSessionPanicRecovery(t *testing.T) {
	m := chaosManager(nil)
	ctx := ctxT(t)

	s, err := m.Open(ctx, "t", testGraph(t), nil, &ChaosSpec{Seed: 7, Panics: 1, Horizon: 16})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n, err := s.Pump(ctx, 20, nil)
	if err != nil {
		t.Fatalf("pump across panic: %v", err)
	}
	if n != 20 {
		t.Fatalf("completed = %d, want 20", n)
	}
	if got := s.State(); got != StateRunning {
		t.Fatalf("state after recovery = %v, want running", got)
	}
	if s.Panics() != 1 || s.Restarts() != 1 {
		t.Fatalf("panics=%d restarts=%d, want 1/1", s.Panics(), s.Restarts())
	}
	if st := m.Stats(); st.Panics != 1 || st.Restarts != 1 {
		t.Fatalf("fleet panics=%d restarts=%d, want 1/1", st.Panics, st.Restarts)
	}
	var sawAbort, sawRestore bool
	for _, ev := range s.Metrics().Events() {
		switch ev.Kind {
		case obs.EvAbort:
			sawAbort = true
		case obs.EvRestore:
			sawRestore = true
		}
	}
	if !sawAbort || !sawRestore {
		t.Fatalf("records abort=%v restore=%v, want both", sawAbort, sawRestore)
	}

	// The recovered session keeps working and drains cleanly.
	if _, err := s.Pump(ctx, 5, nil); err != nil {
		t.Fatalf("pump after recovery: %v", err)
	}
	if _, err := m.Close(ctx, s.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPumpPanicReplaysWholePump pins what a mid-pump panic costs now that
// a pump is one epoch: the engine restarts from the pump's opening cut and
// replays the whole pump — one restore, at the opening count — and the
// client still sees one ack whose count and sink totals equal a fault-free
// run's.
func TestPumpPanicReplaysWholePump(t *testing.T) {
	const warm, pump = 3, 8
	ctx := ctxT(t)
	run := func(m *Manager, chaos *ChaosSpec) *Session {
		s, err := m.Open(ctx, "t", testGraph(t), nil, chaos)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n, err := s.Pump(ctx, warm, nil); err != nil || n != warm {
			t.Fatalf("warm-up pump: n=%d err=%v", n, err)
		}
		if n, err := s.Pump(ctx, pump, nil); err != nil || n != warm+pump {
			t.Fatalf("pump: n=%d err=%v, want one ack at %d", n, err, warm+pump)
		}
		return s
	}
	ref := run(NewManager(Config{}), nil)

	// Find the seed whose single panic lands in the pump's fifth iteration:
	// the sink's firings warm+4 .. warm+5 iterations in.
	sink := ref.sinkNames[0]
	var q int64
	for _, a := range ref.Metrics().EngineSnapshot().Actors {
		if a.Name == sink {
			q = a.Firings / (warm + pump)
		}
	}
	spec := &ChaosSpec{Panics: 1, Horizon: (warm + pump) * q}
	for found := false; !found; {
		spec.Seed++
		probe := spec.plan(ref.sinkNames[:1])
		for k := (warm + 4) * q; k < (warm+5)*q; k++ {
			_, panics := probe.Behavior(sink, k)
			found = found || panics
		}
	}

	s := run(chaosManager(nil), spec)
	if got, want := s.SinkTokens(), ref.SinkTokens(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink tokens %v, want %v (fault-free)", got, want)
	}
	if s.Panics() != 1 || s.Restarts() != 1 {
		t.Fatalf("panics=%d restarts=%d, want 1/1", s.Panics(), s.Restarts())
	}
	if snap := s.Metrics().EngineSnapshot(); snap.Aborts != 1 || snap.Restores != 1 {
		t.Fatalf("aborts=%d restores=%d, want 1/1", snap.Aborts, snap.Restores)
	}
	var restores []int64
	for _, ev := range s.Metrics().Events() {
		if ev.Kind == obs.EvRestore {
			restores = append(restores, ev.Completed)
		}
	}
	if !reflect.DeepEqual(restores, []int64{warm}) {
		t.Fatalf("restores at %v, want one at the pump's opening count %d", restores, warm)
	}
}

// TestPumpPanicReissuesParams is the session half of the one-cut rule: the
// cut a pump restarts from is taken before the hook handed out the pump's
// verdict, so the restarted engine is asked at the opening boundary again
// and must be given the pump's overrides again (Stream's supervisor answers
// from the verdict it remembers). A panic in the first iteration of a pump
// that carries params equals a fault-free session in sink tokens and
// Completed, and both hold what tpdf.Execute delivers under the valuation
// the boundary committed — when the rebind is accepted and when an injected
// abort refuses it: a refusal is part of what the boundary did, and the
// restart must not propose the overrides a second time.
func TestPumpPanicReissuesParams(t *testing.T) {
	const warm, pump, tail = 3, 4, 2
	ctx := ctxT(t)
	warmed := func(chaos *ChaosSpec) *Session {
		m := chaosManager(nil)
		t.Cleanup(func() { m.Drain(context.Background()) }) //nolint:errcheck
		s, err := m.Open(ctx, "t", testGraph(t), nil, chaos)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := s.Pump(ctx, warm, nil); err != nil {
			t.Fatalf("warm-up pump: %v", err)
		}
		return s
	}
	// opening is the sink's firing count at the params pump's opening boundary.
	var opening int64
	for _, a := range warmed(nil).Metrics().EngineSnapshot().Actors {
		if a.Name == "SNK" {
			opening = a.Firings
		}
	}
	run := func(chaos *ChaosSpec) *Session {
		s := warmed(chaos)
		if n, err := s.Pump(ctx, pump, map[string]int64{"p": 4}); err != nil || n != warm+pump {
			t.Fatalf("pump with params: n=%d err=%v, want one ack at %d", n, err, warm+pump)
		}
		if _, err := s.Pump(ctx, tail, nil); err != nil {
			t.Fatalf("tail pump: %v", err)
		}
		return s
	}
	// seeded finds the schedule whose one panic is the sink's first firing of
	// the params pump and whose rebind abort, if any, is due by then.
	seeded := func(aborts int) *ChaosSpec {
		spec := &ChaosSpec{Panics: 1, RebindAborts: aborts, Horizon: opening + 1}
		for {
			spec.Seed++
			plan := spec.plan([]string{"SNK"})
			if _, panics := plan.Behavior("SNK", opening); panics && plan.RebindFault(warm) == (aborts > 0) {
				return spec
			}
		}
	}
	for _, c := range []struct {
		name   string
		aborts int
		p      int64
		ref    *ChaosSpec
	}{
		{"accepted", 0, 4, nil},
		{"refused", 1, 2, &ChaosSpec{RebindAborts: 1, Horizon: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, got := run(c.ref), run(seeded(c.aborts))
			if got.Panics() != 1 || got.Restarts() != 1 {
				t.Fatalf("panics=%d restarts=%d, want 1/1", got.Panics(), got.Restarts())
			}
			if g, w := got.SinkTokens(), ref.SinkTokens(); !reflect.DeepEqual(g, w) {
				t.Errorf("sink tokens %v, want %v (fault-free)", g, w)
			}
			if got.Completed() != ref.Completed() {
				t.Errorf("completed %d, want %d", got.Completed(), ref.Completed())
			}
			spec, _ := specRun(t, []segment{{warm, nil}, {pump + tail, map[string]int64{"p": c.p}}})
			if g := ref.SinkTokens(); !reflect.DeepEqual(g, spec) {
				t.Errorf("fault-free sink tokens %v, Execute with p=%d after the warm-up %v", g, c.p, spec)
			}
			if g, w := got.RebindAborts(), ref.RebindAborts(); g != w || w != int64(c.aborts) {
				t.Errorf("rebind aborts %d, fault-free %d, want %d", g, w, c.aborts)
			}
		})
	}
}

// TestSessionPanicIsolation crashes one session repeatedly past its
// restart budget while a neighbor session keeps pumping: the crashing
// session must fail alone — the neighbor and the process never notice.
func TestSessionPanicIsolation(t *testing.T) {
	m := chaosManager(func(c *Config) { c.MaxRestarts = -1 })
	ctx := ctxT(t)

	victim, err := m.Open(ctx, "t", testGraph(t), nil, &ChaosSpec{Seed: 3, Panics: 1, Horizon: 8})
	if err != nil {
		t.Fatalf("open victim: %v", err)
	}
	bystander, err := m.Open(ctx, "t", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open bystander: %v", err)
	}

	_, err = victim.Pump(ctx, 20, nil)
	if err == nil {
		t.Fatal("victim pump succeeded; want engine failure with recovery disabled")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("victim error %v does not name the panic", err)
	}
	if got := victim.State(); got != StateFailed {
		t.Fatalf("victim state = %v, want failed", got)
	}

	if _, err := bystander.Pump(ctx, 10, nil); err != nil {
		t.Fatalf("bystander pump: %v", err)
	}
	if got := bystander.State(); got != StateRunning {
		t.Fatalf("bystander state = %v, want running", got)
	}
	if _, err := m.Close(ctx, bystander.ID); err != nil {
		t.Fatalf("close bystander: %v", err)
	}
	if _, err := m.Close(ctx, victim.ID); err == nil {
		t.Fatal("closing failed victim returned no error")
	}
}

// TestSessionRebindAbortSurvives sends a reconfiguration the engine must
// reject (a parameter below its declared minimum fails the rebind) and
// checks the session survives it: the abort is counted, the old valuation
// stays in force, and later pumps and rebinds work.
func TestSessionRebindAbortSurvives(t *testing.T) {
	m := NewManager(Config{})
	ctx := ctxT(t)

	s, err := m.Open(ctx, "t", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := s.Pump(ctx, 2, map[string]int64{"p": 0}); err != nil {
		t.Fatalf("pump with bad params: %v (want survived abort)", err)
	}
	if s.RebindAborts() != 1 {
		t.Fatalf("rebind aborts = %d, want 1", s.RebindAborts())
	}
	if st := m.Stats(); st.RebindAborts != 1 {
		t.Fatalf("fleet rebind aborts = %d, want 1", st.RebindAborts)
	}
	if got := s.State(); got != StateRunning {
		t.Fatalf("state after aborted rebind = %v, want running", got)
	}
	if _, err := s.Pump(ctx, 3, map[string]int64{"p": 4}); err != nil {
		t.Fatalf("pump with good params after abort: %v", err)
	}
	if _, err := m.Close(ctx, s.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestDrainVsReconfigureRace races in-flight Reconfigure/Pump commands
// against a fleet drain: every command call must return promptly (applied,
// or answered with the drain sentinel), the drain must complete, and no
// session goroutine may leak. Also covers the open-vs-drain registration
// window: sessions admitted while Drain snapshots its ID list must still
// be drained (or refused), never leaked.
func TestDrainVsReconfigureRace(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		m := NewManager(Config{DrainTimeout: 2 * time.Second})
		ctx := ctxT(t)

		s, err := m.Open(ctx, "t", testGraph(t), nil, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := s.Pump(ctx, 1, nil); err != nil {
			t.Fatalf("warmup pump: %v", err)
		}

		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 8; j++ {
					err := s.Reconfigure(ctx, map[string]int64{"p": int64(2 + j%3)})
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("reconfigure %d/%d: %w", i, j, err)
						return
					}
					if err != nil {
						return // drained; sentinel is the expected outcome
					}
				}
			}(i)
		}
		// Race a late Open against the drain: either admitted and then
		// drained, or refused with ErrShuttingDown — never leaked.
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.Open(ctx, "late", testGraph(t), nil, nil)
			if err != nil && !errors.Is(err, ErrShuttingDown) && !errors.Is(err, ErrBusy) {
				errs <- fmt.Errorf("late open: %w", err)
			}
		}()

		if err := m.Drain(ctx); err != nil {
			t.Fatalf("drain round %d: %v", round, err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Sessions != 0 {
			t.Fatalf("round %d: %d sessions leaked past drain", round, st.Sessions)
		}
	}
	waitGoroutines(t, base, 2)
}

// TestAdmitWaitCancelWhileQueued cancels an opener waiting in the
// admission queue and checks the cancellation is clean: the queue
// position is released, the tenant quota is not consumed, and the
// rejection counters do not move (a cancel is not a server-side reject).
func TestAdmitWaitCancelWhileQueued(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, AdmitWait: time.Minute})
	ctx := ctxT(t)

	s, err := m.Open(ctx, "t", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	openErr := make(chan error, 1)
	go func() {
		_, err := m.Open(cctx, "waiter", testGraph(t), nil, nil)
		openErr <- err
	}()
	// Wait until the opener is queued, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("opener never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-openErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued open returned %v, want context.Canceled", err)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	st := m.Stats()
	if st.RejectedBusy != 0 || st.RejectedQuota != 0 {
		t.Fatalf("cancel counted as rejection: %+v", st)
	}

	// The cancelled opener must not hold quota: with the slot freed, the
	// same tenant can open immediately.
	if _, err := m.Close(ctx, s.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := m.Open(ctx, "waiter", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open after cancel: %v", err)
	}
	if _, err := m.Close(ctx, s2.ID); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

// TestChaosSoakFleet is the in-process chaos soak: a fleet of sessions
// each carrying a seeded fault schedule (panics, delays, rebind aborts)
// runs through the full HTTP surface via RunLoad. Every session must
// complete — injected panics recovered by supervisors, aborted rebinds
// absorbed — with zero failed sessions, zero leaks, zero goroutine leaks.
func TestChaosSoakFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short")
	}
	base := runtime.NumGoroutine()
	srv := New(Config{
		MaxSessions: 64,
		EnableChaos: true,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	ctx := ctxT(t)

	rep, err := RunLoad(ctx, LoadConfig{
		BaseURL:     "http://" + addr,
		Sessions:    50,
		Concurrency: 16,
		Pumps:       4,
		Iterations:  8,
		Chaos:       &ChaosSpec{Seed: 42, Panics: 1, Delays: 1, RebindAborts: 1, Horizon: 24},
	})
	if err != nil {
		t.Fatalf("chaos soak: %v", err)
	}
	if rep.Failed != 0 || rep.Leaked != 0 {
		t.Fatalf("chaos soak: %d failed, %d leaked (want 0/0)", rep.Failed, rep.Leaked)
	}
	if !rep.MetricsValid {
		t.Fatal("metrics exposition invalid during chaos soak")
	}
	if rep.Panics == 0 || rep.Restarts == 0 {
		t.Fatalf("chaos injected nothing: panics=%d restarts=%d", rep.Panics, rep.Restarts)
	}
	if rep.RebindAborts == 0 {
		t.Fatalf("chaos run saw no rebind aborts")
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitGoroutines(t, base, 4)
}

// segment is a run of iterations under one set of parameter overrides (nil:
// the graph's defaults).
type segment struct {
	iters  int64
	params map[string]int64
}

// specRun is what the specification says a count-profile session on
// testGraph holds after running segs back to back, each under its own
// valuation: one tpdf.Execute per segment, summed. An iteration returns
// every edge to its starting occupancy, so a rebind at the boundary between
// two segments starts the next from the graph's initial state. It returns
// every sink's consumed tokens and its firings.
func specRun(t *testing.T, segs []segment) (tokens, firings map[string]int64) {
	t.Helper()
	g := testGraph(t)
	out := make([]bool, len(g.Nodes))
	for _, e := range g.Edges {
		out[e.Src] = true
	}
	tokens, firings = map[string]int64{}, map[string]int64{}
	count := map[string]tpdf.Behavior{}
	for ni, n := range g.Nodes {
		if out[ni] {
			continue
		}
		name := n.Name
		count[name] = func(f *tpdf.Firing) error {
			for _, vals := range f.In {
				tokens[name] += int64(len(vals))
			}
			return nil
		}
	}
	for _, sg := range segs {
		res, err := tpdf.Execute(g, count, tpdf.WithParams(sg.params), tpdf.WithIterations(sg.iters))
		if err != nil {
			t.Fatalf("execute %d iterations under %v: %v", sg.iters, sg.params, err)
		}
		for name := range count {
			firings[name] += res.Firings[name]
		}
	}
	return tokens, firings
}

// pumpSeq pumps seq through s and checks that every pump is acked at the
// running total; it returns the first pump error.
func pumpSeq(ctx context.Context, t *testing.T, s *Session, seq []segment) error {
	t.Helper()
	total := s.Completed()
	for _, pm := range seq {
		n, err := s.Pump(ctx, pm.iters, pm.params)
		if err != nil {
			return err
		}
		if total += pm.iters; n != total {
			t.Fatalf("pump of %d acked at %d, want %d", pm.iters, n, total)
		}
	}
	return nil
}

// TestSupervisorRestartBudget is what a session's restart path promises,
// checked against the specification (tpdf.Execute) rather than against
// another supervisor. For several fault schedules, k <= MaxRestarts
// injected panics leave the acks and the sinks exactly what a fault-free
// execution of the same valuations delivers, with one restart per panic
// and a clean drain; one panic more fails the session with that panic;
// MaxRestarts < 0 fails it on the first; and the resumed start of a
// cold-start recovered session is not a restart.
func TestSupervisorRestartBudget(t *testing.T) {
	const maxRestarts = 3
	ctx := ctxT(t)
	g := testGraph(t)
	pumps := []segment{
		{3, nil}, {4, map[string]int64{"p": 4}}, {2, nil}, {5, map[string]int64{"p": 6}}, {3, map[string]int64{"p": 2}},
	}
	// Each pump runs under its overrides on top of the previous valuation.
	var segs []segment
	val := map[string]int64{}
	for _, pm := range pumps {
		for k, v := range pm.params {
			val[k] = v
		}
		segs = append(segs, segment{pm.iters, maps.Clone(val)})
	}
	want, firings := specRun(t, segs)
	// Panic sites are firing indexes of fig2's one sink: every site below
	// its total is reached.
	horizon := firings["SNK"]
	isPanic := func(t *testing.T, err error) {
		t.Helper()
		var pe *tpdf.BehaviorPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("error %v, want a *tpdf.BehaviorPanicError", err)
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		for _, k := range []int{0, 1, 2, maxRestarts, maxRestarts + 1} {
			t.Run(fmt.Sprintf("seed=%d/panics=%d", seed, k), func(t *testing.T) {
				m := chaosManager(func(c *Config) { c.MaxRestarts = maxRestarts })
				s, err := m.Open(ctx, "t", g, nil, &ChaosSpec{Seed: seed, Panics: k, Horizon: horizon})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				err = pumpSeq(ctx, t, s, pumps)
				_, derr := m.Close(ctx, s.ID)
				if k > maxRestarts {
					isPanic(t, err)
					isPanic(t, derr)
					if s.Panics() != maxRestarts+1 || s.Restarts() != maxRestarts || s.State() != StateFailed {
						t.Fatalf("panics=%d restarts=%d state=%v, want %d/%d failed",
							s.Panics(), s.Restarts(), s.State(), maxRestarts+1, maxRestarts)
					}
					return
				}
				if err != nil || derr != nil {
					t.Fatalf("pumps: %v; close: %v", err, derr)
				}
				if got := s.SinkTokens(); !reflect.DeepEqual(got, want) {
					t.Errorf("sink tokens %v, Execute %v", got, want)
				}
				if s.Panics() != int64(k) || s.Restarts() != int64(k) || s.State() != StateDrained {
					t.Errorf("panics=%d restarts=%d state=%v, want %d/%d drained", s.Panics(), s.Restarts(), s.State(), k, k)
				}
			})
		}
	}

	t.Run("no recovery", func(t *testing.T) {
		m := chaosManager(func(c *Config) { c.MaxRestarts = -1 })
		s, err := m.Open(ctx, "t", g, nil, &ChaosSpec{Seed: 1, Panics: 1, Horizon: horizon})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		isPanic(t, pumpSeq(ctx, t, s, pumps))
		if s.Panics() != 1 || s.Restarts() != 0 {
			t.Fatalf("panics=%d restarts=%d, want 1/0", s.Panics(), s.Restarts())
		}
		m.Close(ctx, s.ID) //nolint:errcheck // the panic, checked above
	})

	t.Run("cold start is not a restart", func(t *testing.T) {
		const before = 2
		cfg, _ := durableConfig(t)
		cfg.EnableChaos = true
		m1 := NewManager(cfg)
		s1, err := m1.Open(ctx, "t", g, nil, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := pumpSeq(ctx, t, s1, pumps[:before]); err != nil {
			t.Fatalf("pumps before the restart: %v", err)
		}
		if err := m1.Drain(ctx); err != nil { // keeps the snapshots
			t.Fatalf("drain: %v", err)
		}

		m2 := NewManager(cfg)
		t.Cleanup(func() { m2.Drain(context.Background()) }) //nolint:errcheck
		snap, err := m2.store.Load(s1.ID)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		var resumed int64
		for i, n := range snap.Checkpoint.Nodes {
			if n == "SNK" {
				resumed = snap.Checkpoint.Fired[i]
			}
		}
		// A schedule whose one panic lands after the resumed start.
		spec := &ChaosSpec{Panics: 1, Horizon: horizon}
		for found := false; !found; {
			spec.Seed++
			probe := spec.plan([]string{"SNK"})
			for k := resumed; k < horizon && !found; k++ {
				_, found = probe.Behavior("SNK", k)
			}
		}
		sg, err := snap.Graph()
		if err != nil {
			t.Fatalf("snapshot graph: %v", err)
		}
		// recoverSession's admission, with a fault schedule.
		s2, err := m2.admit(ctx, s1.ID, snap.Tenant, sg, snap.Checkpoint.Params, spec, snap.Checkpoint)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if err := pumpSeq(ctx, t, s2, pumps[before:]); err != nil {
			t.Fatalf("pumps after the restart: %v", err)
		}
		if got := s2.SinkTokens(); !reflect.DeepEqual(got, want) {
			t.Errorf("sink tokens %v, Execute %v", got, want)
		}
		if s2.Panics() != 1 || s2.Restarts() != 1 {
			t.Errorf("panics=%d restarts=%d, want 1/1", s2.Panics(), s2.Restarts())
		}
	})
}
