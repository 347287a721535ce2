package runner

// Scratch is a reusable firing context for one node: the In/Out maps are
// materialized once with the node's port names, and Begin resets them
// between firings by truncating the payload slices in place — no maps, no
// slice headers, no Firing values are allocated on the warm path.
//
// The price of reuse is a lifetime rule shared by both executors: the
// payload slices reachable through f.In and f.Out are valid only for the
// duration of the firing. Behaviors may keep the payload *values* (they are
// copied into the channel queues), but must not retain the slices
// themselves across firings.
type Scratch struct {
	f        Firing
	inPorts  []string
	outPorts []string
}

// NewScratch builds the scratch for a node with the given port names (in
// wiring order; duplicates are harmless).
func NewScratch(node string, inPorts, outPorts []string) *Scratch {
	s := &Scratch{
		inPorts:  inPorts,
		outPorts: outPorts,
		f: Firing{
			Node: node,
			In:   make(map[string][]any, len(inPorts)),
			Out:  make(map[string][]any, len(outPorts)),
		},
	}
	for _, p := range inPorts {
		s.f.In[p] = nil
	}
	for _, p := range outPorts {
		s.f.Out[p] = nil
	}
	return s
}

// Begin resets the scratch for firing k and returns the Firing to pass to
// the behavior. Every port slice is truncated to length zero with its
// backing array retained, so steady-state firings allocate nothing.
func (s *Scratch) Begin(k int64) *Firing {
	s.f.K = k
	for _, p := range s.inPorts {
		if in := s.f.In[p]; len(in) > 0 {
			s.f.In[p] = in[:0]
		}
	}
	for _, p := range s.outPorts {
		if out := s.f.Out[p]; len(out) > 0 {
			s.f.Out[p] = out[:0]
		}
	}
	return &s.f
}
