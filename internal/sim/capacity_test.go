package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/symb"
)

// burstGraph: a produces 4 tokens per firing, b drains them one at a time
// over 4 firings.
func burstGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph("burst")
	a := g.AddKernel("a", 1)
	b := g.AddKernel("b", 1)
	if _, err := g.Connect(a, "[4]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// runBounded runs cfg under finite per-edge capacities — the path the
// minimal-capacity search probes with — and reports whether every node
// still fired as often as in the unbounded run.
func runBounded(t *testing.T, cfg sim.Config, caps []int64) (*sim.Result, bool) {
	t.Helper()
	ref, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCapacities(caps); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, reflect.DeepEqual(res.Firings, ref.Firings)
}

func TestRunBoundedSufficientCapacity(t *testing.T) {
	res, complete := runBounded(t, sim.Config{Graph: burstGraph(t)}, []int64{4})
	if !complete {
		t.Fatal("capacity 4 must suffice for a 4-token burst")
	}
	if res.HighWater[0] != 4 {
		t.Errorf("highwater = %d, want 4", res.HighWater[0])
	}
}

func TestRunBoundedInsufficientCapacity(t *testing.T) {
	if _, complete := runBounded(t, sim.Config{Graph: burstGraph(t)}, []int64{3}); complete {
		t.Fatal("capacity 3 cannot hold a 4-token burst: producer must block")
	}
}

func TestBackpressureThrottlesPipelining(t *testing.T) {
	// Fast producer, slow consumer over several iterations: with capacity 1
	// the producer serializes behind the consumer.
	g := core.NewGraph("throttle")
	a := g.AddKernel("a", 1)
	b := g.AddKernel("b", 10)
	if _, err := g.Connect(a, "[1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	unbounded, err := sim.Run(sim.Config{Graph: g, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	bounded, complete := runBounded(t, sim.Config{Graph: g, Iterations: 5}, []int64{1})
	if !complete {
		t.Fatal("capacity 1 suffices for a 1-token-per-firing pipeline")
	}
	if bounded.HighWater[0] != 1 {
		t.Errorf("bounded highwater = %d, want 1", bounded.HighWater[0])
	}
	if unbounded.HighWater[0] <= 1 {
		t.Errorf("unbounded highwater = %d, want > 1 (producer runs ahead)", unbounded.HighWater[0])
	}
	if bounded.Time < unbounded.Time {
		t.Errorf("back-pressure cannot finish earlier: %d < %d", bounded.Time, unbounded.Time)
	}
}

func TestMinimalCapacitiesPipeline(t *testing.T) {
	g := burstGraph(t)
	caps, err := sim.MinimalCapacities(sim.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != 4 {
		t.Errorf("minimal capacity = %d, want 4 (the burst size)", caps[0])
	}
}

func TestMinimalCapacitiesRespectInitialTokens(t *testing.T) {
	g := core.NewGraph("init")
	a := g.AddKernel("a", 1)
	b := g.AddKernel("b", 1)
	if _, err := g.Connect(a, "[1]", b, "[1]", 3); err != nil {
		t.Fatal(err)
	}
	caps, err := sim.MinimalCapacities(sim.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] < 3 {
		t.Errorf("capacity %d below the 3 initial tokens", caps[0])
	}
}

func TestMinimalCapacitiesOFDMMatchesPaper(t *testing.T) {
	// The per-edge minimum capacities of the TPDF OFDM graph sum to the
	// paper's 3 + β(12N+L): every channel's high-water mark is its true
	// minimum because each stage transfers its whole batch at once.
	params := apps.OFDMParams{Beta: 5, M: 4, N: 64, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Graph: g, Env: symb.Env(params.Env()), Decide: decide}
	caps, err := sim.MinimalCapacities(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range caps {
		total += c
	}
	if want := apps.PaperTPDFBuffer(params); total != want {
		t.Errorf("minimal total capacity = %d, want paper %d", total, want)
	}
	// The allocation is per iteration, so a longer run needs no more. The
	// rejected demapping branch's edge never carries a token: probed at 0 it
	// blocked the select-duplicate, every probe failed and a 4-iteration
	// search returned four iterations' high-water marks.
	cfg.Iterations = 4
	long, err := sim.MinimalCapacities(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(long, caps) {
		t.Errorf("minimal capacities over 4 iterations = %v, want the 1-iteration %v", long, caps)
	}
}
