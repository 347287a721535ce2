package engine

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/runner"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// multiratePipeline builds SRC -[4]->[3,1] A -[2]->[4] B -[3]->[1] SNK: a
// consistent multirate chain (q = [1, 2, 1, 3], 7 firings per iteration)
// with a cyclo-static phase on A, whose schedule returns every edge to its
// initial state, so ring capacities do not depend on the iteration count.
func multiratePipeline(t testing.TB) *core.Graph {
	t.Helper()
	g := core.NewGraph("hot")
	src := g.AddKernel("SRC", 1)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	snk := g.AddKernel("SNK", 1)
	if _, err := g.Connect(src, "[4]", a, "[3,1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, "[2]", b, "[4]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "[3]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// firingsPerIteration of multiratePipeline: sum of q = 1+2+1+3.
const firingsPerIteration = 7

// hotBehaviors pushes pre-boxed small integers through the chain without
// allocating: payload values below 256 use the runtime's static boxes, and
// output appends reuse the scratch's retained capacity.
func hotBehaviors(sunk *int64) map[string]runner.Behavior {
	return map[string]runner.Behavior{
		"SRC": func(f *runner.Firing) error {
			out := f.Out["o0"]
			for j := 0; j < 4; j++ {
				out = append(out, j)
			}
			f.Out["o0"] = out
			return nil
		},
		"A": func(f *runner.Firing) error {
			f.Out["o0"] = append(f.Out["o0"], 1, 2)
			return nil
		},
		"B": func(f *runner.Firing) error {
			f.Out["o0"] = append(f.Out["o0"], 7, 8, 9)
			return nil
		},
		"SNK": func(f *runner.Firing) error {
			*sunk += int64(len(f.In["i0"]))
			return nil
		},
	}
}

// mallocsOfRun measures the process-wide heap allocation count of one
// engine run at the given iteration count. decorate, when non-nil, adjusts
// the config before the run (the metrics-enabled variants hook in here).
func mallocsOfRun(t testing.TB, g *core.Graph, iters int64, decorate func(*Config)) uint64 {
	t.Helper()
	var sunk int64
	behaviors := hotBehaviors(&sunk)
	cfg := Config{Graph: g, Behaviors: behaviors, Iterations: iters}
	if decorate != nil {
		decorate(&cfg)
	}
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	return m2.Mallocs - m1.Mallocs
}

// TestStreamSteadyStateAllocs pins the warm firing path at zero heap
// allocations per firing, the execution-side mirror of the analysis
// fabric's TestSweepSteadyStateAllocs: two runs differing only in
// iteration count must allocate the same, because everything a firing
// touches — ring slots, the firing scratch, the payload boxes — is
// preallocated or reused. Run setup (goroutines, rings, schedule) is
// identical in both runs and cancels out of the delta.
//
// The metrics variant proves the barrier-harvest rule: with a Registry, a
// Journal and a nil-returning Reconfigure hook attached (so every
// iteration is a separate epoch with a harvest and journal events at its
// boundary), the per-firing and per-barrier paths must still allocate
// nothing — counters are plain stores into preallocated blocks, the
// harvest reuses one stored closure and the snapshot's slices, and journal
// entries land in a preallocated ring.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting skipped in -short (race CI inflates runtime bookkeeping)")
	}
	g := multiratePipeline(t)
	const small, big = 64, 4096

	variants := []struct {
		name     string
		decorate func(*Config)
	}{
		{"plain", nil},
		{"metrics", func(cfg *Config) {
			cfg.Metrics = obs.NewRegistry()
			cfg.Journal = obs.NewJournal(128)
		}},
		{"metrics+barriers", func(cfg *Config) {
			cfg.Metrics = obs.NewRegistry()
			cfg.Journal = obs.NewJournal(128)
			cfg.Reconfigure = func(int64) map[string]int64 { return nil }
		}},
		// Checkpoint-armed variants: a capture at every transaction barrier
		// (per-iteration epochs via the nil hook) must stay off the heap —
		// counters land in the preallocated arena, ring contents are peeked
		// into reusable buffers, and the sink's CopyInto reuses its slices.
		{"checkpoint", func(cfg *Config) {
			cfg.CheckpointSink = func(*Checkpoint) {}
			cfg.Reconfigure = func(int64) map[string]int64 { return nil }
		}},
		{"checkpoint+sink", func(cfg *Config) {
			held := &Checkpoint{}
			cfg.CheckpointSink = func(ck *Checkpoint) { ck.CopyInto(held) }
			cfg.Reconfigure = func(int64) map[string]int64 { return nil }
		}},
		{"checkpoint+metrics", func(cfg *Config) {
			cfg.CheckpointSink = func(*Checkpoint) {}
			cfg.Metrics = obs.NewRegistry()
			cfg.Journal = obs.NewJournal(128)
			cfg.Reconfigure = func(int64) map[string]int64 { return nil }
		}},
		// Durable-armed shape: the cut at every barrier feeding a
		// double-buffered sink (what the durable writer's Offer does) —
		// still zero heap traffic per firing.
		{"checkpoint+entry+sink", func(cfg *Config) {
			var bufs [2]Checkpoint
			cur := 0
			cfg.CheckpointSink = func(ck *Checkpoint) {
				ck.CopyInto(&bufs[cur])
				cur ^= 1
			}
			cfg.Reconfigure = func(int64) map[string]int64 { return nil }
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			mallocsOfRun(t, g, small, v.decorate) // warm OS/runtime one-time costs
			smallAllocs := mallocsOfRun(t, g, small, v.decorate)
			bigAllocs := mallocsOfRun(t, g, big, v.decorate)

			extraFirings := float64((big - small) * firingsPerIteration)
			perFiring := (float64(bigAllocs) - float64(smallAllocs)) / extraFirings
			t.Logf("allocs: %d @ %d iters, %d @ %d iters -> %.4f allocs/firing",
				smallAllocs, small, bigAllocs, big, perFiring)
			if perFiring > 0.01 {
				t.Errorf("warm firing path allocates %.4f allocs/firing, want 0", perFiring)
			}
		})
	}
}

// TestTokenOnlyStreamSteadyStateAllocs is the same gate for the
// behavior-less transport path (discard + writeNil, no Firing at all).
func TestTokenOnlyStreamSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting skipped in -short")
	}
	g := multiratePipeline(t)
	measure := func(iters int64) uint64 {
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		if _, err := Run(Config{Graph: g, Iterations: iters}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m2)
		return m2.Mallocs - m1.Mallocs
	}
	measure(64)
	smallAllocs := measure(64)
	bigAllocs := measure(4096)
	perFiring := (float64(bigAllocs) - float64(smallAllocs)) / float64((4096-64)*firingsPerIteration)
	t.Logf("token-only: %.4f allocs/firing", perFiring)
	if perFiring > 0.01 {
		t.Errorf("token-only firing path allocates %.4f allocs/firing, want 0", perFiring)
	}
}

// TestUnchangedReconfigureMatchesPlainStream is the reconfigure-churn
// differential: a hook that returns nil or the current values must leave
// the run byte-identical to a plain Stream — same captured payload
// sequence, same firing counts, same leftovers — while staying in one
// engine state the whole time.
func TestUnchangedReconfigureMatchesPlainStream(t *testing.T) {
	g := core.NewGraph("unchanged")
	g.AddParam("p", 3, 1, 8)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	if _, err := g.Connect(a, "[p]", b, "[p]", 2); err != nil {
		t.Fatal(err)
	}

	capture := func(sink *[]any) map[string]runner.Behavior {
		return map[string]runner.Behavior{
			"A": func(f *runner.Firing) error {
				for j := int64(0); j < 3; j++ {
					f.Out["o0"] = append(f.Out["o0"], int(f.K*3+j))
				}
				return nil
			},
			"B": func(f *runner.Firing) error {
				*sink = append(*sink, append([]any(nil), f.In["i0"]...)...)
				return nil
			},
		}
	}

	var plainSink []any
	plain, err := Run(Config{Graph: g, Behaviors: capture(&plainSink), Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}

	for name, hook := range map[string]func(int64) map[string]int64{
		"nil-hook":       func(int64) map[string]int64 { return nil },
		"unchanged-hook": func(int64) map[string]int64 { return map[string]int64{"p": 3} },
	} {
		t.Run(name, func(t *testing.T) {
			var sink []any
			calls := int64(0)
			res, err := Run(Config{Graph: g, Behaviors: capture(&sink), Iterations: 16,
				Reconfigure: func(completed int64) map[string]int64 {
					calls++
					if calls != completed {
						t.Errorf("hook called out of order: call %d reported %d completed", calls, completed)
					}
					return hook(completed)
				}})
			if err != nil {
				t.Fatal(err)
			}
			if calls != 15 {
				t.Errorf("hook called %d times, want 15 (every interior boundary)", calls)
			}
			if !reflect.DeepEqual(res.Firings, plain.Firings) {
				t.Errorf("firings diverged: %v vs plain %v", res.Firings, plain.Firings)
			}
			if !reflect.DeepEqual(res.Remaining, plain.Remaining) {
				t.Errorf("remaining diverged: %v vs plain %v", res.Remaining, plain.Remaining)
			}
			if !reflect.DeepEqual(sink, plainSink) {
				t.Errorf("payload stream diverged from plain Stream")
			}
		})
	}
}

// BenchmarkStreamReconfigure measures the cost of a transaction boundary
// that changes a parameter every iteration. The "rebind" sub-benchmark is
// the engine's path (three scenario rows built once, then table hits);
// "instantiate"
// prices what the pre-ring engine paid at every such boundary — a full
// Instantiate, repetition vector, schedule and channel rebuild — without
// executing any firings, so the two are directly comparable per boundary.
func BenchmarkStreamReconfigure(b *testing.B) {
	g := core.NewGraph("reconf")
	g.AddParam("p", 2, 1, 8)
	a := g.AddKernel("A", 1)
	s := g.AddKernel("B", 1)
	if _, err := g.Connect(a, "[p]", s, "[p]", 0); err != nil {
		b.Fatal(err)
	}
	const iters = 64
	pOf := func(completed int64) int64 { return 2 + completed%3 }

	b.Run("rebind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := Run(Config{Graph: g, Iterations: iters,
				Reconfigure: func(completed int64) map[string]int64 {
					return map[string]int64{"p": pOf(completed)}
				}})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instantiate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for it := int64(1); it < iters; it++ {
				env := symb.Env{"p": pOf(it)}
				cg, _, err := g.Instantiate(env)
				if err != nil {
					b.Fatal(err)
				}
				sol, err := cg.RepetitionVector()
				if err != nil {
					b.Fatal(err)
				}
				sch, err := cg.BuildSchedule(sol, csdf.Demand)
				if err != nil {
					b.Fatal(err)
				}
				for ci := range cg.Edges {
					ch := make(chan any, sch.MaxTokens[ci])
					_ = ch
				}
			}
		}
	})
}

// BenchmarkStreamTransport is the transport-bound benchmark: behaviors do
// no work, so ns/op is dominated by token movement and synchronization —
// the metric the ring transport is built to improve over per-token channel
// sends.
func BenchmarkStreamTransport(b *testing.B) {
	g := multiratePipeline(b)
	var sunk int64
	behaviors := hotBehaviors(&sunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Graph: g, Behaviors: behaviors, Iterations: 256}); err != nil {
			b.Fatal(err)
		}
	}
}
