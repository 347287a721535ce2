package tpdf_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/tpdf"
)

// TestCompiledSharingMatchesFreshCompile is the program-cache correctness
// contract: for every built-in application graph, a Stream run on a shared
// CompiledGraph (the skeleton stamped per engine, compilation paid once) is
// byte-identical — same firing counts, same leftover channel contents in
// the same FIFO order — to a run that compiles privately, including when
// many engines stamp from the same skeleton concurrently (run under -race
// in CI).
func TestCompiledSharingMatchesFreshCompile(t *testing.T) {
	const engines = 4
	for _, name := range tpdf.BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			g, err := tpdf.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := tpdf.Compile(g)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// The fresh path: Stream compiles internally, nothing shared.
			want, err := tpdf.Stream(compiled.Graph(), nil, tpdf.WithIterations(3))
			if err != nil {
				t.Fatal(err)
			}

			// The shared path: engines racing to stamp one skeleton.
			var wg sync.WaitGroup
			results := make([]*tpdf.ExecResult, engines)
			errs := make([]error, engines)
			for i := 0; i < engines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = tpdf.Stream(compiled.Graph(), nil,
						tpdf.WithCompiled(compiled), tpdf.WithIterations(3))
				}(i)
			}
			wg.Wait()
			for i := 0; i < engines; i++ {
				if errs[i] != nil {
					t.Fatalf("shared engine %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(want.Firings, results[i].Firings) {
					t.Errorf("engine %d firings: fresh %v, shared %v", i, want.Firings, results[i].Firings)
				}
				if !reflect.DeepEqual(want.Remaining, results[i].Remaining) {
					t.Errorf("engine %d remaining: fresh %v, shared %v", i, want.Remaining, results[i].Remaining)
				}
			}
		})
	}
}

// TestCompiledSharingReconfigure extends the contract to reconfiguration:
// a parameter schedule applied at transaction boundaries must land
// identically whether the engine compiled privately or stamped from a
// shared skeleton — rebinding one engine's rates must never show through
// to its siblings.
func TestCompiledSharingReconfigure(t *testing.T) {
	g, err := tpdf.Builtin("fig2")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := tpdf.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(completed int64) map[string]int64 {
		return map[string]int64{"p": 1 + completed%3}
	}

	want, err := tpdf.Stream(compiled.Graph(), nil,
		tpdf.WithIterations(9), tpdf.WithReconfigure(schedule))
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent shared engines on *different* schedules: the one under
	// test plus an interferer rebinding other values against the same
	// skeleton the whole time.
	const engines = 3
	var wg sync.WaitGroup
	results := make([]*tpdf.ExecResult, engines)
	errs := make([]error, engines)
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = tpdf.Stream(compiled.Graph(), nil,
				tpdf.WithCompiled(compiled), tpdf.WithIterations(9),
				tpdf.WithReconfigure(schedule))
		}(i)
	}
	interfere := make(chan struct{})
	go func() {
		defer close(interfere)
		_, _ = tpdf.Stream(compiled.Graph(), nil,
			tpdf.WithCompiled(compiled), tpdf.WithIterations(9),
			tpdf.WithReconfigure(func(completed int64) map[string]int64 {
				return map[string]int64{"p": 8 - completed%4}
			}))
	}()
	wg.Wait()
	<-interfere

	for i := 0; i < engines; i++ {
		if errs[i] != nil {
			t.Fatalf("shared engine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want.Firings, results[i].Firings) {
			t.Errorf("engine %d firings diverged under sharing: fresh %v, shared %v",
				i, want.Firings, results[i].Firings)
		}
		if !reflect.DeepEqual(want.Remaining, results[i].Remaining) {
			t.Errorf("engine %d remaining diverged under sharing", i)
		}
	}
}

// TestCompiledGraphRejectsForeignGraph pins the pointer-identity rule: a
// CompiledGraph may only drive runs of the exact graph value it was
// compiled from — a structurally identical duplicate must be refused, not
// silently mis-lowered.
func TestCompiledGraphRejectsForeignGraph(t *testing.T) {
	g1, err := tpdf.Builtin("fig2")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tpdf.Builtin("fig2")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := tpdf.Compile(g1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpdf.Stream(g2, nil, tpdf.WithCompiled(compiled), tpdf.WithIterations(1)); err == nil {
		t.Fatalf("Stream accepted a compiled program from a different graph value")
	}
	if _, err := tpdf.Simulate(g2, tpdf.WithCompiled(compiled)); err == nil {
		t.Error("Simulate accepted a compiled program from a different graph value")
	}
	if _, err := tpdf.Schedule(g2, tpdf.WithCompiled(compiled)); err == nil {
		t.Error("Schedule accepted a compiled program from a different graph value")
	}
	if _, err := tpdf.GenerateCode(g2, tpdf.WithCompiled(compiled)); err == nil {
		t.Error("GenerateCode accepted a compiled program from a different graph value")
	}
}

// TestCompiledSharingOneShotEntryPoints extends the sharing contract to the
// entry points that bind a single Program: Simulate, Schedule and
// GenerateCode stamped from a shared CompiledGraph (graph passed or nil)
// answer exactly what they answer when they compile privately.
func TestCompiledSharingOneShotEntryPoints(t *testing.T) {
	for _, name := range tpdf.BuiltinNames() {
		s, err := tpdf.BuiltinScenario(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := tpdf.Compile(s.Graph)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, g := range []*tpdf.Graph{s.Graph, nil} {
			shared := tpdf.WithCompiled(compiled)
			wantSim, err1 := tpdf.Simulate(s.Graph, tpdf.WithDecisions(s.Decide))
			gotSim, err2 := tpdf.Simulate(g, tpdf.WithDecisions(s.Decide), shared)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(wantSim, gotSim) {
				t.Errorf("%s: Simulate fresh (%v) and shared (%v) differ", name, err1, err2)
			}
			wantSched, err1 := tpdf.Schedule(s.Graph, tpdf.WithProcessors(4))
			gotSched, err2 := tpdf.Schedule(g, tpdf.WithProcessors(4), shared)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(wantSched, gotSched) {
				t.Errorf("%s: Schedule fresh (%v) and shared (%v) differ", name, err1, err2)
			}
			wantSrc, err1 := tpdf.GenerateCode(s.Graph)
			gotSrc, err2 := tpdf.GenerateCode(g, shared)
			if err1 != nil || err2 != nil || wantSrc != gotSrc {
				t.Errorf("%s: GenerateCode fresh (%v) and shared (%v) differ", name, err1, err2)
			}
		}
	}
}

// TestEntryPointsRefuseTheSameValuations is the facade half of refusal
// parity: the tiers on the product lowering (Simulate, Schedule,
// GenerateCode, Stream) and the reference tier (Execute) refuse the same
// valuations, each with an error naming the same parameter or edge.
func TestEntryPointsRefuseTheSameValuations(t *testing.T) {
	g, err := tpdf.NewGraph("halves").
		Param("p", 4, 1, 8).
		Kernel("A", 1).Kernel("B", 1).
		Connect("A[p/2] -> B[p/2]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	entryPoints := map[string]func(tpdf.Option) error{
		"Simulate":     func(o tpdf.Option) error { _, err := tpdf.Simulate(g, o); return err },
		"Schedule":     func(o tpdf.Option) error { _, err := tpdf.Schedule(g, o); return err },
		"GenerateCode": func(o tpdf.Option) error { _, err := tpdf.GenerateCode(g, o); return err },
		"Stream":       func(o tpdf.Option) error { _, err := tpdf.Stream(g, nil, o); return err },
		"Execute":      func(o tpdf.Option) error { _, err := tpdf.Execute(g, nil, o); return err },
	}
	for _, c := range []struct {
		p     int64
		names string // what every refusal must mention; "" = accepted
	}{
		{0, "parameter p = 0"},
		{9, "parameter p = 9 above declared maximum 8"},
		{3, `edge "e1" production`},
		{5, "p/2"},
		{4, ""},
		{8, ""},
	} {
		for name, run := range entryPoints {
			err := run(tpdf.WithParam("p", c.p))
			switch {
			case c.names == "" && err != nil:
				t.Errorf("%s at p=%d: %v", name, c.p, err)
			case c.names != "" && err == nil:
				t.Errorf("%s accepted p=%d", name, c.p)
			case c.names != "" && !strings.Contains(err.Error(), c.names):
				t.Errorf("%s at p=%d: %q does not name %q", name, c.p, err, c.names)
			}
		}
	}
}
