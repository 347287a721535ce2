package tpdf_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/csdf"
	"repro/internal/gen"
	"repro/tpdf"
	"repro/tpdf/obs"
)

// TestDerivedCapacities checks what Stream promises about memory under
// per-actor contexts against the specification, on every builtin and on
// generated graphs: the run completes and equals Execute, and every ring
// holds exactly the high-water mark of the reference stack's demand-driven
// schedule (Instantiate → RepetitionVector → BuildSchedule), floored at one
// token, the edge's initial tokens and its largest per-firing rate (a whole
// batch must fit).
func TestDerivedCapacities(t *testing.T) {
	graphs := map[string]*tpdf.Graph{}
	for _, name := range tpdf.BuiltinNames() {
		g, err := tpdf.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for seed := int64(1); seed <= 32; seed++ {
		graphs[fmt.Sprintf("gen-%d", seed)] = gen.Graph(seed, gen.GraphConfig{})
	}
	for name, g := range graphs {
		want := specCapacities(t, g)
		ref, err := tpdf.Execute(g, nil, tpdf.WithIterations(2))
		if err != nil {
			t.Fatalf("%s: Execute: %v", name, err)
		}
		for _, workers := range []int{2, len(g.Nodes)} {
			reg := obs.NewRegistry()
			// A ring smaller than its initial tokens blocks Stream before its
			// watchdog starts, so the run is bounded here.
			type run struct {
				res *tpdf.ExecResult
				err error
			}
			done := make(chan run, 1)
			go func() {
				res, err := tpdf.Stream(g, nil, tpdf.WithIterations(2), tpdf.WithWorkers(workers), tpdf.WithMetrics(reg))
				done <- run{res, err}
			}()
			var got *tpdf.ExecResult
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatalf("%s, %d workers: %v", name, workers, r.err)
				}
				got = r.res
			case <-time.After(30 * time.Second):
				t.Fatalf("%s, %d workers: Stream did not complete", name, workers)
			}
			if !reflect.DeepEqual(got.Firings, ref.Firings) || !reflect.DeepEqual(got.Remaining, ref.Remaining) {
				t.Errorf("%s, %d workers: Stream %v/%v, Execute %v/%v", name, workers, got.Firings, got.Remaining, ref.Firings, ref.Remaining)
			}
			edges := reg.EngineSnapshot().Edges
			if len(edges) != len(want) {
				t.Fatalf("%s, %d workers: %d edges in the registry, want %d", name, workers, len(edges), len(want))
			}
			for _, ed := range edges {
				if c, ok := want[ed.Name]; !ok || ed.Capacity != c {
					t.Errorf("%s, %d workers: edge %s capacity %d, want %d", name, workers, ed.Name, ed.Capacity, c)
				}
			}
		}
	}
}

// specCapacities computes every edge's ring capacity from the reference
// stack at the graph's default valuation: max(1, Initial, every Prod/Cons
// rate, the demand schedule's MaxTokens).
func specCapacities(t *testing.T, g *tpdf.Graph) map[string]int64 {
	t.Helper()
	cg, _, err := g.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := cg.BuildSchedule(sol, csdf.Demand)
	if err != nil {
		t.Fatal(err)
	}
	caps := map[string]int64{}
	for ci, ed := range cg.Edges {
		c := max(1, ed.Initial, sch.MaxTokens[ci])
		for _, r := range ed.Prod {
			c = max(c, r)
		}
		for _, r := range ed.Cons {
			c = max(c, r)
		}
		caps[ed.Name] = c
	}
	return caps
}
