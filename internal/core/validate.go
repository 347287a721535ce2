package core

import (
	"fmt"

	"repro/internal/rat"
	"repro/internal/symb"
)

// Validate checks the structural well-formedness rules of Definition 2:
//
//   - node names are unique and non-empty;
//   - every port is connected to exactly one edge (dataflow graphs have
//     point-to-point channels);
//   - kernels have at most one control input port; control actors have none
//     of their own modes and no control input is required (they may take
//     control inputs with rate in {0,1});
//   - control channels start at control actors only (E_c ⊆ O_G × C);
//   - control-port rates are in {0,1} for every firing (R_k(m,c,n) ∈ {0,1});
//   - every parameter occurring in a rate is declared, and all rates are
//     syntactically non-negative for legal parameter values (checked at the
//     default valuation and at the bounds);
//   - kernels with modes have a control port; special kernels have the
//     required port shape (Select-duplicate: 1 data input; Transaction: 1
//     data output).
func (g *Graph) Validate() error {
	names := map[string]bool{}
	declared := map[string]bool{}
	for _, p := range g.Params {
		if p.Name == "" {
			return fmt.Errorf("core: empty parameter name")
		}
		if declared[p.Name] {
			return fmt.Errorf("core: duplicate parameter %q", p.Name)
		}
		declared[p.Name] = true
	}

	for id, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("core: node %d has empty name", id)
		}
		if names[n.Name] {
			return fmt.Errorf("core: duplicate node name %q", n.Name)
		}
		names[n.Name] = true

		ctlIns := 0
		for pi := range n.Ports {
			p := &n.Ports[pi]
			if len(p.Rates) == 0 {
				return fmt.Errorf("core: port %s.%s has no rates", n.Name, p.Name)
			}
			for _, r := range p.Rates {
				for _, v := range r.Vars() {
					if !declared[v] {
						return fmt.Errorf("core: port %s.%s uses undeclared parameter %q", n.Name, p.Name, v)
					}
				}
			}
			switch p.Dir {
			case CtlIn:
				ctlIns++
				if n.Kind != KindKernel {
					return fmt.Errorf("core: control actor %q cannot have a control input port", n.Name)
				}
				if err := checkZeroOne(p.Rates, n.Name, p.Name, g); err != nil {
					return err
				}
			case CtlOut:
				if n.Kind != KindControl {
					return fmt.Errorf("core: kernel %q cannot have a control output port %q", n.Name, p.Name)
				}
			}
		}
		if ctlIns > 1 {
			return fmt.Errorf("core: kernel %q has %d control ports; at most one is allowed", n.Name, ctlIns)
		}
		// Kernels without control ports always operate dataflow-style
		// (§II-B); declared modes are then simply unreachable, so no
		// mode/control-port cross-check is required.
		switch n.Special {
		case SpecialSelectDup:
			if len(n.DataIns()) != 1 {
				return fmt.Errorf("core: select-duplicate %q must have exactly one data input", n.Name)
			}
		case SpecialTransaction:
			if len(n.DataOuts()) != 1 {
				return fmt.Errorf("core: transaction %q must have exactly one data output", n.Name)
			}
		}
		if n.Kind == KindControl && n.ClockPeriod < 0 {
			return fmt.Errorf("core: clock %q has negative period", n.Name)
		}
	}

	// Edge and port-connectivity checks.
	used := map[[2]int]string{} // (node, port) -> edge name
	for _, e := range g.Edges {
		if int(e.Src) >= len(g.Nodes) || int(e.Dst) >= len(g.Nodes) || e.Src < 0 || e.Dst < 0 {
			return fmt.Errorf("core: edge %q endpoint out of range", e.Name)
		}
		src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
		if e.SrcPort < 0 || e.SrcPort >= len(src.Ports) || e.DstPort < 0 || e.DstPort >= len(dst.Ports) {
			return fmt.Errorf("core: edge %q port out of range", e.Name)
		}
		sp, dp := &src.Ports[e.SrcPort], &dst.Ports[e.DstPort]
		if sp.Dir != Out && sp.Dir != CtlOut {
			return fmt.Errorf("core: edge %q starts at non-output port %s.%s", e.Name, src.Name, sp.Name)
		}
		if dp.Dir != In && dp.Dir != CtlIn {
			return fmt.Errorf("core: edge %q ends at non-input port %s.%s", e.Name, dst.Name, dp.Name)
		}
		if dp.Dir == CtlIn && src.Kind != KindControl {
			return fmt.Errorf("core: control channel %q must start at a control actor, not kernel %q", e.Name, src.Name)
		}
		if e.Initial < 0 {
			return fmt.Errorf("core: edge %q has negative initial tokens", e.Name)
		}
		for _, end := range [][2]int{{int(e.Src), e.SrcPort}, {int(e.Dst), e.DstPort}} {
			if prev, dup := used[end]; dup {
				return fmt.Errorf("core: port %s.%s connected by both %q and %q",
					g.Nodes[end[0]].Name, g.Nodes[end[0]].Ports[end[1]].Name, prev, e.Name)
			}
			used[end] = e.Name
		}
	}
	for id, n := range g.Nodes {
		for pi := range n.Ports {
			if _, ok := used[[2]int{id, pi}]; !ok {
				return fmt.Errorf("core: port %s.%s is not connected", n.Name, n.Ports[pi].Name)
			}
		}
	}

	// Rates must be non-negative at representative valuations.
	for i, env := range g.ProbeEnvs() {
		for _, n := range g.Nodes {
			for pi := range n.Ports {
				for _, r := range n.Ports[pi].Rates {
					if _, isConst := r.Const(); isConst && i > 0 {
						continue // its sign was settled at the first valuation
					}
					v, err := r.Eval(env, 1)
					if err != nil {
						return fmt.Errorf("core: rate %s on %s.%s: %v", r, n.Name, n.Ports[pi].Name, err)
					}
					if v.Sign() < 0 {
						return fmt.Errorf("core: rate %s on %s.%s is negative at %v", r, n.Name, n.Ports[pi].Name, env)
					}
				}
			}
		}
	}
	return nil
}

// ProbeEnvs returns the parameter valuations concrete checks probe: the
// defaults and the corners of the declared ranges (all-min, all-max; a
// parameter with no declared maximum is probed two above its minimum).
// Validate checks rate signs at them, the liveness analysis schedules
// every cycle at them.
func (g *Graph) ProbeEnvs() []symb.Env {
	def := g.DefaultEnv()
	if len(g.Params) == 0 {
		return []symb.Env{def}
	}
	lo, hi := symb.Env{}, symb.Env{}
	for _, p := range g.Params {
		mn, mx := p.Min, p.Max
		if mn <= 0 {
			mn = 1
		}
		if mx <= 0 {
			mx = mn + 2
		}
		lo[p.Name] = mn
		hi[p.Name] = mx
	}
	return []symb.Env{def, lo, hi}
}

// checkZeroOne verifies that every rate in the sequence is the constant 0 or
// 1 or provably in {0,1} at representative valuations.
func checkZeroOne(seq []symb.Expr, node, port string, g *Graph) error {
	for _, r := range seq {
		if c, ok := r.Const(); ok {
			if !c.IsZero() && !c.Equal(rat.One) {
				return fmt.Errorf("core: control port %s.%s rate %s not in {0,1}", node, port, r)
			}
			continue
		}
		for _, env := range g.ProbeEnvs() {
			v, err := r.Eval(env, 1)
			if err != nil {
				return fmt.Errorf("core: control port %s.%s rate %s: %v", node, port, r, err)
			}
			if !v.IsZero() && !v.Equal(rat.One) {
				return fmt.Errorf("core: control port %s.%s rate %s evaluates to %s ∉ {0,1}", node, port, r, v)
			}
		}
	}
	return nil
}
