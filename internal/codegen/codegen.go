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
//     order, calling into a user-supplied Behaviors table;
//   - the repetition vector and schedule recorded as constants.
//
// The output compiles as a standalone package; tests validate it with
// go/parser and go/types-level checks via parsing.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/csdf"
)

// Options configures generation.
type Options struct {
	// Package is the package name of the generated file (default "schedule").
	Package string
}

// Generate returns the Go source of the quasi-static schedule of the bound
// program's current valuation.
func Generate(prog *core.Program, opts Options) (string, error) {
	if !prog.Bound() {
		return "", fmt.Errorf("codegen: program is unbound; call Rebind before generating code")
	}
	pkg := opts.Package
	if pkg == "" {
		pkg = "schedule"
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
	fmt.Fprintf(&b, "package %s\n\n", pkg)

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
	b.WriteString("// Behaviors maps node names to firing functions; nil entries forward\n")
	b.WriteString("// placeholder tokens so rate structure is preserved.\n")
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
		produces := false
		for _, pe := range outs[actor] {
			if cg.Edges[pe.edge].ProdAt(k) > 0 {
				produces = true
			}
		}
		if produces {
			fmt.Fprintf(&b, "\t\tout := fire(behaviors, %q, in)\n", name)
		} else {
			fmt.Fprintf(&b, "\t\tfire(behaviors, %q, in)\n", name)
		}
		for _, pe := range outs[actor] {
			rate := cg.Edges[pe.edge].ProdAt(k)
			if rate == 0 {
				continue
			}
			fmt.Fprintf(&b, "\t\tbuf%d = appendN(buf%d, out[%q], %d)\n",
				pe.edge, pe.edge, pe.port, rate)
		}
		b.WriteString("\t}\n")
		fired[actor]++
	}
	b.WriteString("\treturn nil\n}\n\n")

	// Support runtime.
	b.WriteString(`// fire invokes a behavior or synthesizes empty output.
func fire(behaviors map[string]Firing, node string, in map[string][]Token) map[string][]Token {
	if f, ok := behaviors[node]; ok && f != nil {
		if out := f(in); out != nil {
			return out
		}
	}
	return map[string][]Token{}
}

// appendN appends exactly n tokens, padding with nil when the behavior
// produced fewer (rate structure always holds).
func appendN(buf []Token, vals []Token, n int) []Token {
	for i := 0; i < n; i++ {
		if i < len(vals) {
			buf = append(buf, vals[i])
		} else {
			buf = append(buf, nil)
		}
	}
	return buf
}

type scheduleError struct{ node, edge string }

func (e scheduleError) Error() string {
	return "schedule underflow at " + e.node + " on " + e.edge
}

func errUnderflow(node, edge string) error { return scheduleError{node, edge} }
`)
	return b.String(), nil
}
