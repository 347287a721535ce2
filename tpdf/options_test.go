package tpdf

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph("chain").
		Kernel("A", 2).
		Kernel("B", 5).
		Kernel("C", 3).
		Connect("A[1] -> B[1]").
		Connect("B[1] -> C[1]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOptionDefaults(t *testing.T) {
	cfg := buildConfig(nil)
	if cfg.iterations != 1 {
		t.Errorf("default iterations = %d, want 1", cfg.iterations)
	}
	if cfg.processors != 0 {
		t.Errorf("default processors = %d, want 0 (unlimited)", cfg.processors)
	}
	if !cfg.controlPriority {
		t.Error("control priority should default on")
	}
	if cfg.ctx != nil || cfg.record || cfg.platform != nil {
		t.Error("zero-value options leaked defaults")
	}
}

func TestOptionParamMerging(t *testing.T) {
	cfg := buildConfig([]Option{
		WithParams(map[string]int64{"a": 1, "b": 2}),
		WithParam("b", 3),
	})
	if cfg.params["a"] != 1 || cfg.params["b"] != 3 {
		t.Errorf("params did not merge last-wins: %v", cfg.params)
	}
	empty := buildConfig(nil)
	if empty.env() != nil {
		t.Error("no params should mean nil env (graph defaults)")
	}
}

func TestSimulateOptionBehavior(t *testing.T) {
	g := chainGraph(t)

	// Default: one iteration, every node fires once.
	one, err := Simulate(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range one.Firings {
		if n != 1 {
			t.Errorf("node %d fired %d times, want 1", i, n)
		}
	}

	// WithIterations scales the firing budget.
	four, err := Simulate(g, WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	if four.Firings[0] != 4 {
		t.Errorf("4 iterations fired %d times, want 4", four.Firings[0])
	}

	// WithProcessors(1) serializes: completion is the sum of all work.
	serial, err := Simulate(g, WithProcessors(1))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Time != 10 {
		t.Errorf("1-PE completion t=%d, want 10 (2+5+3)", serial.Time)
	}

	// WithRecord stores the trace; default does not.
	if len(one.Events) != 0 {
		t.Error("trace recorded without WithRecord")
	}
	rec, err := Simulate(g, WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 3 {
		t.Errorf("recorded %d events, want 3", len(rec.Events))
	}
}

func TestSimulateContextCancellation(t *testing.T) {
	g := chainGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Simulate(g, WithContext(ctx), WithIterations(1_000_000))
	if err == nil {
		t.Fatal("cancelled context should abort the run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", err)
	}

	// A live context leaves the run untouched.
	if _, err := Simulate(g, WithContext(context.Background())); err != nil {
		t.Fatalf("live context broke the run: %v", err)
	}
}

func TestScheduleOptions(t *testing.T) {
	g := Fig2()
	res, err := Schedule(g, WithParam("p", 2), WithPlatform(SMP(4)), WithProcessors(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings == 0 || len(res.Items) != res.Firings {
		t.Errorf("items/firings mismatch: %d items, %d firings", len(res.Items), res.Firings)
	}
	if res.Makespan <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("implausible schedule: makespan %d, utilization %f", res.Makespan, res.Utilization)
	}
	if res.CriticalPath <= 0 || res.CriticalPath > res.Makespan {
		t.Errorf("critical path %d vs makespan %d", res.CriticalPath, res.Makespan)
	}
	if !strings.Contains(res.Gantt(80), "PE") {
		t.Error("Gantt rendering lost its lanes")
	}

	// Serializing onto one PE can only lengthen the makespan.
	one, err := Schedule(g, WithParam("p", 2), WithPlatform(SMP(1)), WithProcessors(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.Makespan < res.Makespan {
		t.Errorf("1-PE makespan %d < 4-PE makespan %d", one.Makespan, res.Makespan)
	}
}

func TestAnalyzeReport(t *testing.T) {
	rep := Analyze(Fig2())
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if !rep.Consistent || !rep.RateSafe || !rep.Live || !rep.Bounded {
		t.Errorf("Fig2 verdicts wrong: %+v", rep)
	}
	if !strings.Contains(rep.RepetitionVector, "2*p") {
		t.Errorf("symbolic q lost: %s", rep.RepetitionVector)
	}
	if rep.BufferBoundExpr == "" || rep.BufferBound <= 0 {
		t.Errorf("buffer bound missing: %q = %d", rep.BufferBoundExpr, rep.BufferBound)
	}
	out := rep.String()
	for _, frag := range []string{"consistency: OK", "rate safe", "bounded", "buffer bound"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report rendering missing %q:\n%s", frag, out)
		}
	}
	// WithParams moves the evaluated bound.
	big := Analyze(Fig2(), WithParam("p", 8))
	if big.BufferBound <= rep.BufferBound {
		t.Errorf("bound at p=8 (%d) should exceed default (%d)", big.BufferBound, rep.BufferBound)
	}
}
