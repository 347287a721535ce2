package fuzz

import (
	"strings"

	"repro/internal/gen"
)

// Invariant extracts the invariant name from a Check error ("tiers",
// "recovery", ...), or "" for nil / unrecognized errors. Shrinking uses
// it to accept only candidates that fail the same way.
func Invariant(err error) string {
	if err == nil {
		return ""
	}
	name, _, ok := strings.Cut(err.Error(), ":")
	if !ok {
		return ""
	}
	for _, ch := range invariants {
		if ch.name == name {
			return name
		}
	}
	return ""
}

// Shrink reduces a failing case while preserving its failure: candidates
// (halved horizon, dropped fault sites, dropped rebinds, a smaller graph
// regenerated from the same seed) are re-checked, and one is adopted only
// if Check still fails with the same invariant. maxSteps bounds the total
// number of adopted reductions; the greedy loop also stops as soon as no
// candidate reproduces. Returns the smallest still-failing case (possibly
// c itself).
func Shrink(c *Case, maxSteps int) *Case {
	wantInv := Invariant(Check(c))
	if wantInv == "" {
		return c
	}
	cur := c
	for step := 0; step < maxSteps; step++ {
		adopted := false
		for _, cand := range candidates(cur) {
			if Invariant(Check(cand)) == wantInv {
				cur = cand
				adopted = true
				break
			}
		}
		if !adopted {
			break
		}
	}
	return cur
}

// candidates proposes strictly smaller variants of a case, cheapest
// reductions first.
func candidates(c *Case) []*Case {
	var out []*Case
	s := c.Schedule

	if s.Iterations > 1 {
		out = append(out, &Case{Seed: c.Seed, Graph: c.Graph, Schedule: clipSchedule(s, s.Iterations/2), fromSeed: c.fromSeed})
	}
	if len(s.Panics) > 0 {
		ns := cloneSchedule(s)
		ns.Panics = ns.Panics[:len(ns.Panics)-1]
		out = append(out, &Case{Seed: c.Seed, Graph: c.Graph, Schedule: ns, fromSeed: c.fromSeed})
	}
	if len(s.RebindAborts) > 0 {
		ns := cloneSchedule(s)
		ns.RebindAborts = nil
		out = append(out, &Case{Seed: c.Seed, Graph: c.Graph, Schedule: ns, fromSeed: c.fromSeed})
	}
	if len(s.Rebinds) > 0 {
		ns := cloneSchedule(s)
		ns.Rebinds = ns.Rebinds[:len(ns.Rebinds)-1]
		if len(ns.Rebinds) == 0 {
			ns.RebindAborts = nil
		}
		out = append(out, &Case{Seed: c.Seed, Graph: c.Graph, Schedule: ns, fromSeed: c.fromSeed})
	}

	// Topology reduction: regenerate graph and schedule from the same
	// seed at a smaller node count. Only for seed-generated cases — a
	// corpus-loaded graph has no generator configuration to rerun.
	if c.fromSeed && len(c.Graph.Nodes) > 2 {
		g := gen.Graph(c.Seed, gen.GraphConfig{Nodes: len(c.Graph.Nodes) - 1})
		out = append(out, &Case{
			Seed:     c.Seed,
			Graph:    g,
			Schedule: gen.NewSchedule(c.Seed, g, gen.ScheduleConfig{}),
			fromSeed: true,
		})
	}
	return out
}

// clipSchedule shortens a schedule to iters iterations, dropping rebinds,
// aborts and crash points that fall beyond the new horizon and re-fitting
// the pump cadence.
func clipSchedule(s *gen.Schedule, iters int64) *gen.Schedule {
	ns := &gen.Schedule{Seed: s.Seed, Iterations: iters, Base: copyParams(s.Base), CrashAfterPump: -1}
	kept := map[int64]bool{}
	for _, rb := range s.Rebinds {
		if rb.At < iters {
			ns.Rebinds = append(ns.Rebinds, gen.Rebind{At: rb.At, Params: copyParams(rb.Params)})
			kept[rb.At] = true
		}
	}
	for _, at := range s.RebindAborts {
		if kept[at] {
			ns.RebindAborts = append(ns.RebindAborts, at)
		}
	}
	rem := iters
	for _, p := range s.Pumps {
		if rem <= 0 {
			break
		}
		if p > rem {
			p = rem
		}
		ns.Pumps = append(ns.Pumps, p)
		rem -= p
	}
	if rem > 0 {
		ns.Pumps = append(ns.Pumps, rem)
	}
	if s.CrashAfterPump >= 0 && s.CrashAfterPump < len(ns.Pumps)-1 {
		ns.CrashAfterPump = s.CrashAfterPump
	}
	ns.Panics = append(ns.Panics, s.Panics...)
	return ns
}

func cloneSchedule(s *gen.Schedule) *gen.Schedule {
	ns := &gen.Schedule{
		Seed:           s.Seed,
		Iterations:     s.Iterations,
		Base:           copyParams(s.Base),
		Pumps:          append([]int64(nil), s.Pumps...),
		Panics:         append([]gen.FaultSite(nil), s.Panics...),
		RebindAborts:   append([]int64(nil), s.RebindAborts...),
		CrashAfterPump: s.CrashAfterPump,
	}
	for _, rb := range s.Rebinds {
		ns.Rebinds = append(ns.Rebinds, gen.Rebind{At: rb.At, Params: copyParams(rb.Params)})
	}
	return ns
}
