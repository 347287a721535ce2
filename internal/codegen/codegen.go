// Package codegen emits quasi-static Go code for a TPDF graph: the
// counterpart of the ΣC compilation flow the paper deploys through (§III-D
// builds canonical periods precisely so a compiler can emit static code).
//
// Given a Program bound at a parameter valuation, Generate produces a
// self-contained Go source file with:
//
//   - one buffer variable per channel, sized to the schedule's high-water
//     mark (the statically guaranteed bound of Theorem 2);
//   - a RunIteration function executing one complete iteration in PASS
//     order, calling into a user-supplied Behaviors table and failing a
//     firing whose output count is neither its port's rate nor zero, as
//     the runner and the engine do;
//   - the repetition vector and schedule recorded as comments.
//
// The output is one file of package schedule that imports only fmt. This
// package's tests type-check it; tpdf's TestGeneratedCodeRunsLikeExecute
// builds and runs it against Execute.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/csdf"
)

// Generate returns the Go source, in package schedule, of the
// quasi-static schedule of the bound program's current valuation.
func Generate(prog *core.Program) (string, error) {
	if !prog.Bound() {
		return "", fmt.Errorf("codegen: program is unbound; call Rebind before generating code")
	}
	g, cg, sol := prog.Source(), prog.Concrete(), prog.Solution()
	sched, err := cg.BuildSchedule(sol, csdf.Demand)
	if err != nil {
		return "", fmt.Errorf("codegen: graph has no sequential schedule: %v", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by tpdf codegen for graph %q; DO NOT EDIT.\n", g.Name)
	fmt.Fprintf(&b, "//\n// Repetition vector: %v\n", sol.Q)
	fmt.Fprintf(&b, "// Schedule: %s\n", sched.Format(cg))
	b.WriteString("package schedule\n\nimport \"fmt\"\n\n")

	b.WriteString("// Token is one data item on a channel.\ntype Token any\n\n")
	b.WriteString("// Firing receives the consumed tokens per input port and returns the\n")
	b.WriteString("// tokens to produce per output port.\ntype Firing func(in map[string][]Token) map[string][]Token\n\n")

	// Buffers, statically sized.
	b.WriteString("// Channel buffers, sized to the schedule's high-water marks.\nvar (\n")
	for ei := range cg.Edges {
		e := &cg.Edges[ei]
		size := sched.MaxTokens[ei]
		if size == 0 {
			size = 1
		}
		fmt.Fprintf(&b, "\tbuf%d = make([]Token, 0, %d) // %s: %s -> %s\n",
			ei, size, e.Name, cg.Actors[e.Src].Name, cg.Actors[e.Dst].Name)
	}
	b.WriteString(")\n\n")

	// Init for initial tokens.
	hasInit := false
	for ei := range cg.Edges {
		if cg.Edges[ei].Initial > 0 {
			hasInit = true
		}
	}
	if hasInit {
		b.WriteString("func init() {\n")
		for ei := range cg.Edges {
			for k := int64(0); k < cg.Edges[ei].Initial; k++ {
				fmt.Fprintf(&b, "\tbuf%d = append(buf%d, nil)\n", ei, ei)
			}
		}
		b.WriteString("}\n\n")
	}

	// Per-node port wiring for the firing calls.
	type portEdge struct {
		edge int
		port string
	}
	ins := make([][]portEdge, len(g.Nodes))
	outs := make([][]portEdge, len(g.Nodes))
	for ei, e := range g.Edges {
		ins[e.Dst] = append(ins[e.Dst], portEdge{ei, g.Nodes[e.Dst].Ports[e.DstPort].Name})
		outs[e.Src] = append(outs[e.Src], portEdge{ei, g.Nodes[e.Src].Ports[e.SrcPort].Name})
	}

	b.WriteString("// RunIteration executes one complete graph iteration in schedule order.\n")
	b.WriteString("// Behaviors maps node names to firing functions. A firing must produce\n")
	b.WriteString("// exactly its rate on each output port, or nothing, which forwards nil\n")
	b.WriteString("// placeholder tokens; any other count is an error naming the firing and\n")
	b.WriteString("// port. Nodes without a behavior forward placeholders.\n")
	b.WriteString("func RunIteration(behaviors map[string]Firing) error {\n")
	fired := make([]int64, len(cg.Actors))
	for _, actor := range sched.Order {
		name := cg.Actors[actor].Name
		k := fired[actor]
		fmt.Fprintf(&b, "\t// %s firing %d\n", name, k+1)
		b.WriteString("\t{\n\t\tin := map[string][]Token{}\n")
		for _, pe := range ins[actor] {
			rate := cg.Edges[pe.edge].ConsAt(k)
			if rate == 0 {
				continue
			}
			fmt.Fprintf(&b, "\t\tif len(buf%d) < %d {\n", pe.edge, rate)
			fmt.Fprintf(&b, "\t\t\treturn errUnderflow(%q, %q)\n\t\t}\n", name, cg.Edges[pe.edge].Name)
			fmt.Fprintf(&b, "\t\tin[%q] = buf%d[:%d]\n", pe.port, pe.edge, rate)
			fmt.Fprintf(&b, "\t\tbuf%d = buf%d[%d:]\n", pe.edge, pe.edge, rate)
		}
		if len(outs[actor]) == 0 {
			fmt.Fprintf(&b, "\t\tfire(behaviors, %q, in)\n", name)
		} else {
			fmt.Fprintf(&b, "\t\tout := fire(behaviors, %q, in)\n", name)
		}
		for _, pe := range outs[actor] {
			fmt.Fprintf(&b, "\t\tif err := appendN(&buf%d, out[%q], %d, %q, %d, %q); err != nil {\n\t\t\treturn err\n\t\t}\n",
				pe.edge, pe.port, cg.Edges[pe.edge].ProdAt(k), name, k+1, pe.port)
		}
		b.WriteString("\t}\n")
		fired[actor]++
	}
	b.WriteString("\treturn nil\n}\n\n")

	// Support runtime.
	b.WriteString(`// fire invokes a behavior; a node without one produces nothing.
func fire(behaviors map[string]Firing, node string, in map[string][]Token) map[string][]Token {
	if f := behaviors[node]; f != nil {
		return f(in)
	}
	return nil
}

// appendN appends one firing's output on one port: the n tokens the
// behavior produced, or n nil placeholders when it produced none.
func appendN(buf *[]Token, vals []Token, n int, node string, firing int, port string) error {
	switch len(vals) {
	case n:
		*buf = append(*buf, vals...)
	case 0:
		for i := 0; i < n; i++ {
			*buf = append(*buf, nil)
		}
	default:
		return fmt.Errorf("schedule: %s firing %d: port %s produced %d payloads, rate is %d", node, firing, port, len(vals), n)
	}
	return nil
}

func errUnderflow(node, edge string) error {
	return fmt.Errorf("schedule underflow at %s on %s", node, edge)
}
`)
	return b.String(), nil
}
