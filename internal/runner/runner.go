// Package runner executes TPDF graphs at the payload level: real data
// values flow across the channels while firings follow a valid sequential
// schedule (PASS) of the instantiated graph. It complements internal/sim —
// sim is token-count- and time-accurate, runner is value-accurate — and is
// what the examples use to push images and samples through the paper's
// application graphs.
//
// Run is also the last stage of the reference stack (core.Graph.Instantiate
// → csdf RepetitionVector → Run), the independent oracle behind
// tpdf.Execute: it deliberately lowers through Instantiate rather than a
// core.Program and keeps its own firing loop, so the tiers, epochs and
// contexts pairs and bench/'s output check compare internal/engine against
// code that shares neither its lowering nor its firing body. That is why it
// stays after the engine's one-context path became a schedule walker too;
// only the Behavior and Firing types are shared with the engine (Scratch,
// the runner's reset-per-firing Firing holder, is its own).
package runner

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/symb"
)

// Firing gives a behavior access to one firing's tokens. Both executors
// (the sequential runner and the concurrent engine) reuse the Firing and
// its payload slices across firings of the same node: behaviors may keep
// the payload values, but must not retain f, f.In, f.Out or the slices in
// them past the firing.
type Firing struct {
	// Node is the firing node's name; K is the 0-based firing index.
	Node string
	K    int64
	// In holds consumed payloads per input port name.
	In map[string][]any
	// Out collects produced payloads per output port name; the runner
	// checks counts against the port rates.
	Out map[string][]any
}

// Produce appends payloads to an output port.
func (f *Firing) Produce(port string, values ...any) {
	f.Out[port] = append(f.Out[port], values...)
}

// Behavior computes one firing: read f.In, fill f.Out.
type Behavior func(f *Firing) error

// Config configures a payload run.
type Config struct {
	Graph *core.Graph
	Env   symb.Env
	// Context, when non-nil, cancels the run: it is polled between
	// firings and its error returned once it is done.
	Context context.Context
	// Behaviors maps node names to their firing functions. Nodes without a
	// behavior forward nothing (their produced tokens carry nil payloads),
	// which is fine for sources/sinks that only exist for rate structure.
	Behaviors map[string]Behavior
	// Iterations repeats the schedule (default 1).
	Iterations int64
}

// Result reports a payload run.
type Result struct {
	// Firings counts executed firings per node name.
	Firings map[string]int64
	// Remaining holds leftover payloads per edge name after the run.
	Remaining map[string][]any
}

// Run executes the configured number of iterations sequentially.
func Run(cfg Config) (*Result, error) {
	g := cfg.Graph
	cg, low, err := g.Instantiate(cfg.Env)
	if err != nil {
		return nil, err
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		return nil, err
	}
	sched, err := cg.BuildSchedule(sol, csdf.Demand)
	if err != nil {
		return nil, fmt.Errorf("runner: no sequential schedule: %v", err)
	}

	// Channel payload queues, indexed by csdf edge index.
	queues := make([][]any, len(cg.Edges))
	for ei := range cg.Edges {
		for k := int64(0); k < cg.Edges[ei].Initial; k++ {
			queues[ei] = append(queues[ei], nil)
		}
	}
	// Per node: edges in/out with port names.
	type portEdge struct {
		edge int
		port string
	}
	ins := make([][]portEdge, len(g.Nodes))
	outs := make([][]portEdge, len(g.Nodes))
	for ei, e := range g.Edges {
		ci := low.EdgeOf[ei]
		ins[e.Dst] = append(ins[e.Dst], portEdge{ci, g.Nodes[e.Dst].Ports[e.DstPort].Name})
		outs[e.Src] = append(outs[e.Src], portEdge{ci, g.Nodes[e.Src].Ports[e.SrcPort].Name})
	}

	// Reusable firing contexts, materialized only for nodes that have a
	// behavior: token-only nodes consume unobserved and emit nil
	// placeholders without ever building a Firing.
	behaviors := make([]Behavior, len(g.Nodes))
	scratches := make([]*Scratch, len(g.Nodes))
	for id, n := range g.Nodes {
		b := cfg.Behaviors[n.Name]
		if b == nil {
			continue
		}
		behaviors[id] = b
		inPorts := make([]string, len(ins[id]))
		for i, pe := range ins[id] {
			inPorts[i] = pe.port
		}
		outPorts := make([]string, len(outs[id]))
		for i, pe := range outs[id] {
			outPorts[i] = pe.port
		}
		scratches[id] = NewScratch(n.Name, inPorts, outPorts)
	}

	res := &Result{Firings: map[string]int64{}, Remaining: map[string][]any{}}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 1
	}
	fired := make([]int64, len(g.Nodes))
	for it := int64(0); it < iters; it++ {
		for _, actor := range sched.Order {
			if cfg.Context != nil {
				select {
				case <-cfg.Context.Done():
					return nil, cfg.Context.Err()
				default:
				}
			}
			node := actor // lowering is index-preserving; keep it explicit
			name := g.Nodes[node].Name
			k := fired[node]
			b := behaviors[node]
			if b == nil {
				// Token-only node: consume the input rates, produce nil
				// payloads at the output rates.
				for _, pe := range ins[node] {
					rate := cg.Edges[pe.edge].ConsAt(k)
					if int64(len(queues[pe.edge])) < rate {
						return nil, fmt.Errorf("runner: %s firing %d: edge %s underflow (%d < %d)",
							name, k, cg.Edges[pe.edge].Name, len(queues[pe.edge]), rate)
					}
					queues[pe.edge] = queues[pe.edge][rate:]
				}
				for _, pe := range outs[node] {
					rate := cg.Edges[pe.edge].ProdAt(k)
					for j := int64(0); j < rate; j++ {
						queues[pe.edge] = append(queues[pe.edge], nil)
					}
				}
				fired[node]++
				res.Firings[name]++
				continue
			}
			f := scratches[node].Begin(k)
			// Consume.
			for _, pe := range ins[node] {
				rate := cg.Edges[pe.edge].ConsAt(k)
				if int64(len(queues[pe.edge])) < rate {
					return nil, fmt.Errorf("runner: %s firing %d: edge %s underflow (%d < %d)",
						name, k, cg.Edges[pe.edge].Name, len(queues[pe.edge]), rate)
				}
				f.In[pe.port] = append(f.In[pe.port], queues[pe.edge][:rate]...)
				queues[pe.edge] = queues[pe.edge][rate:]
			}
			// Compute.
			if err := b(f); err != nil {
				return nil, fmt.Errorf("runner: %s firing %d: %v", name, k, err)
			}
			// Produce, checking counts.
			for _, pe := range outs[node] {
				rate := cg.Edges[pe.edge].ProdAt(k)
				vals := f.Out[pe.port]
				switch {
				case int64(len(vals)) == rate:
					queues[pe.edge] = append(queues[pe.edge], vals...)
				case len(vals) == 0:
					// No behavior output: emit nil payloads to keep the
					// token count right.
					for j := int64(0); j < rate; j++ {
						queues[pe.edge] = append(queues[pe.edge], nil)
					}
				default:
					return nil, fmt.Errorf("runner: %s firing %d: port %s produced %d payloads, rate is %d",
						name, k, pe.port, len(vals), rate)
				}
			}
			fired[node]++
			res.Firings[name]++
		}
	}
	for ei, q := range queues {
		if len(q) > 0 {
			res.Remaining[cg.Edges[ei].Name] = q
		}
	}
	return res, nil
}
