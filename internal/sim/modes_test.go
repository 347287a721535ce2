package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestControlRateZeroReusesLastMode exercises the [0,1] control-consumption
// pattern: firings whose control rate is 0 reuse the previously selected
// mode (§II-B: the kernel reads a token only when one is due).
func TestControlRateZeroReusesLastMode(t *testing.T) {
	g := core.NewGraph("lastmode")
	srcA := g.AddKernel("srcA", 0)
	srcB := g.AddKernel("srcB", 0)
	con := g.AddControlActor("con", 0)
	tick := g.AddKernel("tick", 0)
	tr := g.AddTransaction("tr", 0)
	snk := g.AddKernel("snk", 0)

	// tr fires twice per iteration; its control port consumes [1,0]: the
	// first firing reads the mode, the second reuses it.
	if _, err := g.Connect(srcA, "[2]", tr, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	var aPort string
	{
		e := g.Edges[len(g.Edges)-1]
		aPort = g.Nodes[tr].Ports[e.DstPort].Name
	}
	if _, err := g.Connect(srcB, "[2]", tr, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(tr, "[1]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(tick, "[1]", con, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	// Control port with cyclo-static consumption [1,0].
	sp, err := g.AddPort(con, "c0", core.CtlOut, "[1]", 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := g.AddPort(tr, "ctl", core.CtlIn, "[1,0]", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectPorts(con, sp, tr, dp, 0); err != nil {
		t.Fatal(err)
	}

	decide := map[string]sim.DecideFunc{
		"con": func(int64) map[string]sim.ControlToken {
			return map[string]sim.ControlToken{
				"c0": {Mode: core.ModeSelectOne, Selected: []string{aPort}},
			}
		},
	}
	res, err := sim.Run(sim.Config{Graph: g, Decide: decide, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	trID, _ := g.NodeByName("tr")
	if res.Firings[trID] != 2 {
		t.Fatalf("tr fired %d, want 2", res.Firings[trID])
	}
	// Both firings must have used select-one on srcA's port.
	for _, ev := range res.Events {
		if ev.Node != "tr" {
			continue
		}
		if ev.Mode != core.ModeSelectOne {
			t.Errorf("firing %d mode = %v, want select-one (reused)", ev.Firing, ev.Mode)
		}
		if len(ev.Selected) != 1 || ev.Selected[0] != aPort {
			t.Errorf("firing %d selected %v, want [%s]", ev.Firing, ev.Selected, aPort)
		}
	}
}

func TestClockSkipsTickWhileBusy(t *testing.T) {
	// A clock with a long execution time must skip overlapping ticks and
	// resume on its period grid.
	g := core.NewGraph("busyclock")
	clk := g.AddClock("clk", 10)
	g.Nodes[clk].Exec = []int64{25} // each firing takes 2.5 periods
	tr := g.AddTransaction("tr", 0)
	src := g.AddKernel("src", 0)
	snk := g.AddKernel("snk", 0)
	if _, err := g.Connect(src, "[3]", tr, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(tr, "[1]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectControl(clk, "[1]", tr, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Graph: g, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, ev := range res.Events {
		if ev.Node == "clk" {
			ends = append(ends, ev.End)
		}
	}
	if !res.Quiescent {
		t.Error("must quiesce")
	}
	// First tick at 10, done at 35; ticks at 20, 30 are skipped; next at
	// 40, done 65; then 70 -> 95.
	want := []int64{35, 65, 95}
	if len(ends) != len(want) {
		t.Fatalf("clock completions %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("completion %d at %d, want %d", i, ends[i], want[i])
		}
	}
}

func TestProcessorsControlPriority(t *testing.T) {
	// With 1 PE and both a kernel and a control actor ready, the control
	// actor is dispatched first (§III-D), delaying the kernel.
	g := core.NewGraph("prio")
	src := g.AddKernel("src", 0)
	heavy := g.AddKernel("heavy", 100)
	con := g.AddControlActor("con", 10)
	tr := g.AddTransaction("tr", 0)
	snk := g.AddKernel("snk", 0)
	if _, err := g.Connect(src, "[1]", heavy, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "[1]", con, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(heavy, "[1]", tr, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(tr, "[1]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectControl(con, "[1]", tr, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Graph: g, Processors: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var conStart, heavyStart int64 = -1, -1
	for _, ev := range res.Events {
		switch ev.Node {
		case "con":
			conStart = ev.Start
		case "heavy":
			heavyStart = ev.Start
		}
	}
	if conStart < 0 || heavyStart < 0 {
		t.Fatal("both must fire")
	}
	if conStart > heavyStart {
		t.Errorf("control actor started at %d after kernel at %d", conStart, heavyStart)
	}
}

func TestHighWaterIncludesInitialTokens(t *testing.T) {
	g := core.NewGraph("hw")
	a := g.AddKernel("a", 0)
	b := g.AddKernel("b", 0)
	if _, err := g.Connect(a, "[1]", b, "[1]", 5); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.HighWater[0] < 5 {
		t.Errorf("high water %d must include the 5 initial tokens", res.HighWater[0])
	}
}
