package core

import (
	"strings"
	"testing"

	"repro/internal/symb"
)

// Fig2Graph builds the paper's Fig. 2 example: kernels A, B, D, E, F with
// parametric rate p, control actor C, control channel e5 (C -> F.ctl).
//
//	e1: A [p]  -> [1]   B
//	e2: B [1]  -> [2]   D
//	e3: B [1]  -> [2]   C
//	e4: B [1]  -> [1]   E
//	e5: C [2]  -> [1,1] F   (control)
//	e6: D [2]  -> [0,2] F
//	e7: E [1]  -> [1,1] F
func Fig2Graph(t *testing.T) *Graph {
	t.Helper()
	g, err := BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// BuildFig2 is the test fixture shared with other packages' tests.
func BuildFig2() (*Graph, error) {
	g := NewGraph("fig2")
	g.AddParam("p", 2, 1, 100)
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 1)
	c := g.AddControlActor("C", 1)
	d := g.AddKernel("D", 1)
	e := g.AddKernel("E", 1)
	f := g.AddTransaction("F", 1)
	steps := []func() error{
		func() error { _, err := g.Connect(a, "[p]", b, "[1]", 0); return err },
		func() error { _, err := g.Connect(b, "[1]", d, "[2]", 0); return err },
		func() error { _, err := g.Connect(b, "[1]", c, "[2]", 0); return err },
		func() error { _, err := g.Connect(b, "[1]", e, "[1]", 0); return err },
		func() error { _, err := g.ConnectControl(c, "[2]", f, 0); return err },
		func() error { _, err := g.ConnectPriority(d, "[2]", f, "[0,2]", 0, 1); return err },
		func() error { _, err := g.ConnectPriority(e, "[1]", f, "[1,1]", 0, 2); return err },
		func() error { _, err := g.Connect(f, "[1]", g.AddKernel("SNK", 0), "[1]", 0); return err },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func TestFig2Validates(t *testing.T) {
	g := Fig2Graph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFig2Instantiate(t *testing.T) {
	g := Fig2Graph(t)
	for _, p := range []int64{1, 2, 5} {
		cg, low, err := g.Instantiate(symb.Env{"p": p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		sol, err := cg.RepetitionVector()
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// The paper's symbolic vector is q = [2, 2p, p, p, 2p, 2p] (+ SNK =
		// 2p). The concrete vector is its minimal integer multiple: for even
		// p the symbolic entries share a factor the concrete solver removes,
		// so check proportionality plus minimality rather than equality.
		want := []int64{2, 2 * p, p, p, 2 * p, 2 * p, 2 * p}
		g0 := gcdAll(want)
		for j, w := range want {
			if sol.Q[j]*g0 != w*gcdAll(sol.Q) {
				t.Errorf("p=%d: q[%s] = %d not proportional to paper value %d (q=%v)",
					p, cg.Actors[j].Name, sol.Q[j], w, sol.Q)
			}
		}
		if gcdAll(sol.R) != 1 {
			t.Errorf("p=%d: concrete r=%v not minimal", p, sol.R)
		}
		if len(low.EdgeOf) != len(g.Edges) {
			t.Errorf("lowering has %d edges, want %d", len(low.EdgeOf), len(g.Edges))
		}
		// e5 is the control channel.
		if !g.IsControlEdge(g.Edges[4]) {
			t.Error("e5 should be a control edge")
		}
	}
}

func gcdAll(xs []int64) int64 {
	var g int64
	for _, x := range xs {
		for x != 0 {
			g, x = x, g%x
		}
	}
	if g < 0 {
		g = -g
	}
	return g
}

func TestInstantiateRejectsBadParams(t *testing.T) {
	g := Fig2Graph(t)
	if _, _, err := g.Instantiate(symb.Env{"p": 0}); err == nil {
		t.Error("p=0 must be rejected (parameters are >= 1)")
	}
	if _, _, err := g.Instantiate(symb.Env{"p": 101}); err == nil {
		t.Error("p above declared max must be rejected")
	}
}

func TestParseRates(t *testing.T) {
	cases := []struct {
		in  string
		n   int
		str string
	}{
		{"[1,0,1]", 3, "[1,0,1]"},
		{"p", 1, "[p]"},
		{"[p,p]", 2, "[p,p]"},
		{"beta*(N+L)", 1, ""},
		{"[2p]", 1, "[2*p]"},
	}
	for _, c := range cases {
		seq, err := ParseRates(c.in)
		if err != nil {
			t.Errorf("ParseRates(%q): %v", c.in, err)
			continue
		}
		if len(seq) != c.n {
			t.Errorf("ParseRates(%q) len = %d, want %d", c.in, len(seq), c.n)
		}
		if c.str != "" && FormatRates(seq) != c.str {
			t.Errorf("FormatRates(%q) = %q, want %q", c.in, FormatRates(seq), c.str)
		}
	}
	for _, bad := range []string{"", "[", "[]", "[1,]x", "1+"} {
		if _, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) should fail", bad)
		}
	}
}

func TestValidateRejectsControlFromKernel(t *testing.T) {
	g := NewGraph("bad")
	k := g.AddKernel("K")
	f := g.AddTransaction("F")
	// Hand-build a control edge from a kernel (illegal).
	sp, _ := g.AddPort(k, "o", Out, "[1]", 0)
	dp, _ := g.AddPort(f, "ctl", CtlIn, "[1]", 0)
	g.connectPorts(k, sp, f, dp, 0)
	// Complete F's shape so only the control rule can fail first... F needs
	// a data output for the transaction shape rule; add both sides.
	src := g.AddKernel("S")
	if _, err := g.Connect(src, "[1]", f, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	snk := g.AddKernel("Z")
	if _, err := g.Connect(f, "[1]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "control channel") {
		t.Errorf("want control-channel error, got %v", err)
	}
}

func TestValidateRejectsTwoControlPorts(t *testing.T) {
	g := NewGraph("bad2")
	c1 := g.AddControlActor("C1")
	c2 := g.AddControlActor("C2")
	k := g.AddTransaction("K")
	if _, err := g.ConnectControl(c1, "[1]", k, 0); err != nil {
		t.Fatal(err)
	}
	// Force a second control port.
	if _, err := g.AddPort(k, "ctl2", CtlIn, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	sp, _ := g.AddPort(c2, "c0", CtlOut, "[1]", 0)
	dp, _ := g.Nodes[k].PortIndex("ctl2")
	g.connectPorts(c2, sp, k, dp, 0)
	src := g.AddKernel("S")
	if _, err := g.Connect(src, "[1]", k, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	snk := g.AddKernel("Z")
	if _, err := g.Connect(k, "[1]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "control ports") {
		t.Errorf("want at-most-one-control-port error, got %v", err)
	}
}

func TestValidateRejectsControlRateOutOfRange(t *testing.T) {
	g := NewGraph("bad3")
	c := g.AddControlActor("C")
	k := g.AddTransaction("K")
	sp, _ := g.AddPort(c, "c0", CtlOut, "[1]", 0)
	dp, _ := g.AddPort(k, "ctl", CtlIn, "[2]", 0) // rate 2: illegal
	g.connectPorts(c, sp, k, dp, 0)
	src := g.AddKernel("S")
	if _, err := g.Connect(src, "[1]", k, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	snk := g.AddKernel("Z")
	if _, err := g.Connect(k, "[1]", snk, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "{0,1}") {
		t.Errorf("want {0,1} control-rate error, got %v", err)
	}
}

func TestValidateRejectsUndeclaredParam(t *testing.T) {
	g := NewGraph("bad4")
	a := g.AddKernel("A")
	b := g.AddKernel("B")
	if _, err := g.Connect(a, "[q]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("want undeclared-parameter error, got %v", err)
	}
}

func TestValidateRejectsUnconnectedPort(t *testing.T) {
	g := NewGraph("bad5")
	a := g.AddKernel("A")
	b := g.AddKernel("B")
	if _, err := g.Connect(a, "[1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddPort(a, "dangling", Out, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("want unconnected-port error, got %v", err)
	}
}

func TestValidateRejectsDoublyConnectedPort(t *testing.T) {
	g := NewGraph("bad6")
	a := g.AddKernel("A")
	b := g.AddKernel("B")
	c := g.AddKernel("C")
	sp, _ := g.AddPort(a, "o", Out, "[1]", 0)
	d1, _ := g.AddPort(b, "i", In, "[1]", 0)
	d2, _ := g.AddPort(c, "i", In, "[1]", 0)
	g.connectPorts(a, sp, b, d1, 0)
	g.connectPorts(a, sp, c, d2, 0)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "connected by both") {
		t.Errorf("want doubly-connected error, got %v", err)
	}
}

func TestSelectDuplicateShapeRule(t *testing.T) {
	g := NewGraph("dup")
	s := g.AddSelectDuplicate("S")
	a := g.AddKernel("A")
	b := g.AddKernel("B")
	c := g.AddKernel("C")
	// Two inputs violate the 1-entry rule.
	if _, err := g.Connect(a, "[1]", s, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "[1]", s, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(s, "[1]", c, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "exactly one data input") {
		t.Errorf("want select-duplicate shape error, got %v", err)
	}
}

func TestDefaultEnv(t *testing.T) {
	g := NewGraph("env")
	g.AddParam("p", 7, 1, 10)
	g.AddParam("q", 0, 0, 0)
	env := g.DefaultEnv()
	if env["p"] != 7 || env["q"] != 1 {
		t.Errorf("DefaultEnv = %v", env)
	}
}

func TestVirtualizeSelectDuplicate(t *testing.T) {
	// Fig. 3: A -> B (select-dup) -> {D, E}; virtualization adds B_vc,
	// B_vt, B_vsink, keeping the graph consistent and bounded.
	g := NewGraph("fig3")
	a := g.AddKernel("A")
	b := g.AddSelectDuplicate("B")
	d := g.AddKernel("D")
	e := g.AddKernel("E")
	if _, err := g.Connect(a, "[1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "[1]", d, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "[1]", e, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	vc, vt, err := g.VirtualizeSelectDuplicate(b, []NodeID{d, e})
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes[vc].Kind != KindControl {
		t.Error("virtual control actor has wrong kind")
	}
	if g.Nodes[vt].Special != SpecialTransaction {
		t.Error("virtual transaction missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("virtualized graph invalid: %v", err)
	}
	cg, _, err := g.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		t.Fatalf("virtualized graph inconsistent: %v", err)
	}
	// Homogeneous rates: everything fires once per iteration.
	for j, q := range sol.Q {
		if q != 1 {
			t.Errorf("q[%s] = %d, want 1", cg.Actors[j].Name, q)
		}
	}
	ok, err := cg.ReturnsToInitial(sol, 0)
	if err != nil || !ok {
		t.Errorf("virtualized graph must return to initial state: %v %v", ok, err)
	}
}

func TestVirtualizeRejectsNonSelectDup(t *testing.T) {
	g := NewGraph("x")
	k := g.AddKernel("K")
	if _, _, err := g.VirtualizeSelectDuplicate(k, []NodeID{k, k}); err == nil {
		t.Error("virtualizing a plain kernel must fail")
	}
}

func TestGraphString(t *testing.T) {
	g := Fig2Graph(t)
	s := g.String()
	for _, want := range []string{"fig2", "A.o0 [p]", "(control)", "F.ctl"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeWaitAll:         "wait-all",
		ModeSelectOne:       "select-one",
		ModeSelectMany:      "select-many",
		ModeHighestPriority: "highest-priority",
	}
	for m, w := range names {
		if m.String() != w {
			t.Errorf("Mode %d = %q, want %q", int(m), m.String(), w)
		}
	}
}
