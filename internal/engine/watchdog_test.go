package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/tpdf/obs"
)

// wedge runs the watchdog over the smallest genuinely wedged pipeline: one
// edge A -> B whose 3-token ring holds 2 tokens, A parked writing 2 (one
// slot free) and B parked reading 3. No firing can complete, so the
// watchdog, started once both sides have raised their wait flags, must fail
// the run. It returns the run's registry and error, and fails the test if
// the parked goroutines do not return once the run has failed.
func wedge(t *testing.T) (*obs.Registry, error) {
	t.Helper()
	r := newRing(3)
	e := &engine{
		stop:     make(chan struct{}),
		mx:       &engMetrics{reg: obs.NewRegistry()},
		rings:    []*ring{r},
		edgeName: []string{"e0"},
		edgeProd: []string{"A"},
		edgeCons: []string{"B"},
	}
	r.writeNil(2, e.stop)
	returned := make(chan bool, 2)
	go func() { returned <- r.write(make([]any, 2), e.stop) }()
	go func() { returned <- r.read(make([]any, 3), 3, e.stop) }()
	for deadline := time.Now().Add(5 * time.Second); !r.pwait.Load() || !r.cwait.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("A and B never parked on the ring")
		}
		time.Sleep(time.Millisecond)
	}

	stopWatch := e.startWatchdog(20 * time.Millisecond)
	defer stopWatch()
	select {
	case <-e.stop:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fail the wedged run")
	}
	for range 2 {
		select {
		case ok := <-returned:
			if ok {
				t.Error("a parked ring operation completed on a wedged ring")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked goroutine did not return after the run failed")
		}
	}
	return e.mx.reg, e.firstErr()
}

// TestDeadlockDetected: the watchdog turns a wedged ring into an error
// instead of a hang.
func TestDeadlockDetected(t *testing.T) {
	_, err := wedge(t)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("got %v, want a deadlock diagnostic", err)
	}

	// A diamond whose phases interlock on a 1-token A -> B ring runs at the
	// derived capacities (q = [A:2, M:1, B:2], A -> B holds 2), under both
	// clusterings.
	g := core.NewGraph("dead")
	a := g.AddKernel("A", 1)
	m := g.AddKernel("M", 1)
	b := g.AddKernel("B", 1)
	if _, err := g.Connect(m, "[1]", b, "[1,0]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, "[1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, "[0,1]", m, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		res, err := Run(Config{Graph: g, Iterations: 4, Workers: workers})
		if err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		if res.Firings["B"] != 8 {
			t.Fatalf("Workers %d: B fired %d times, want 8", workers, res.Firings["B"])
		}
	}
}

// TestWatchdogStallReportNamesActor requires the watchdog's error to name
// the blocked actors, their wait direction, the edge occupancy and the
// last-progress timestamp — a diagnosable report, not just "stall" — and
// the registry to hold the near-miss before the one stall.
func TestWatchdogStallReportNamesActor(t *testing.T) {
	j, err := wedge(t)
	if err == nil {
		t.Fatal("expected a stall error")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		"last progress at",
		"actor A waiting for space",
		"actor B waiting for tokens",
		"(2/3 tokens)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall report missing %q:\n%s", want, msg)
		}
	}

	var warns, stalls int
	for _, e := range j.Events() {
		switch e.Kind {
		case obs.EvStallWarn:
			warns++
		case obs.EvStall:
			stalls++
			if !strings.Contains(e.Detail, "waiting for") {
				t.Errorf("stall event detail lacks diagnosis: %q", e.Detail)
			}
		}
	}
	if warns < 1 {
		t.Error("no watchdog near-miss recorded before the stall")
	}
	if stalls != 1 {
		t.Errorf("recorded %d stall events, want 1", stalls)
	}
}

// TestStallErrorIncludesRingOccupancy pins the watchdog diagnostics: the
// deadlock error must name the stalled actors *and* report every edge's
// ring occupancy/capacity.
func TestStallErrorIncludesRingOccupancy(t *testing.T) {
	_, err := wedge(t)
	if err == nil {
		t.Fatal("wedged ring did not fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "actor ") || !strings.Contains(msg, "waiting") {
		t.Errorf("stall error names no blocked actor: %q", msg)
	}
	if !strings.Contains(msg, "ring occupancy:") {
		t.Errorf("stall error carries no ring occupancy snapshot: %q", msg)
	}
}
