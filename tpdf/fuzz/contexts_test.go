package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/gen"
	"repro/internal/sinkrec"
	"repro/tpdf"
)

// CheckContexts asserts invariant 8: how the engine clusters actors into
// execution contexts does not change what a run computes. Stream's default
// (one goroutine walking the schedule), WithWorkers(len(nodes)) (one
// goroutine per actor, order found by blocking on the rings) and
// WithWorkers(2) (the same, at most two behaviors at once) all equal
// Execute at the base valuation; the first two equal each other —
// firings, leftovers in FIFO order, sink payload streams, final
// checkpoint — over the schedule's parameter changes at consulted
// boundaries with k-iteration epochs between them; the cuts the two take at a consulted boundary are
// identical, and one resumed under the other clustering lands in the same
// place (CheckEpochs resumes it under its own); an epoch cut short from a
// second goroutine stops at an iteration boundary under per-actor contexts
// as it does under one (CheckEpochs has the default side); and a behavior
// panic recovered by restart leaves the same output under both.
func CheckContexts(c *Case) error {
	g, s := c.Graph, c.Schedule
	rng := rand.New(rand.NewSource(s.Seed ^ 0x636f6e7465787473)) // "contexts"
	perActor := tpdf.WithWorkers(len(g.Nodes))
	sinks := gen.SinkNodes(g)

	execRec := sinkrec.New(sinks)
	want, err := tpdf.Execute(g, execRec.Behaviors(), tpdf.WithParams(s.Base), tpdf.WithIterations(s.Iterations))
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	for _, cl := range []struct {
		name string
		opts []tpdf.Option
	}{
		{"one context", nil},
		{"per-actor contexts", []tpdf.Option{perActor}},
		{"per-actor contexts, two workers", []tpdf.Option{tpdf.WithWorkers(2)}},
	} {
		rec := sinkrec.New(sinks)
		got, err := tpdf.Stream(g, rec.Behaviors(), append(cl.opts, tpdf.WithParams(s.Base), tpdf.WithIterations(s.Iterations))...)
		if err != nil {
			return fmt.Errorf("%s: %w", cl.name, err)
		}
		if err := compareRuns(cl.name+" vs Execute", got, want, rec.Seq(), execRec.Seq()); err != nil {
			return err
		}
	}

	// The schedule's rebinds, consulted every k iterations or sooner where
	// a rebind is due; one consulted boundary's cut is kept.
	k, hook, saveAt := c.epochPlan(rng)
	one, err := c.epochsLeg(s.Iterations, hook, saveAt)
	if err != nil {
		return fmt.Errorf("one context, run %d: %w", k, err)
	}
	each, err := c.epochsLeg(s.Iterations, hook, saveAt, perActor)
	if err != nil {
		return fmt.Errorf("per-actor contexts, run %d: %w", k, err)
	}
	if err := each.equal(fmt.Sprintf("per-actor vs one context (run %d)", k), one); err != nil {
		return err
	}
	if one.saved == nil || each.saved == nil {
		return fmt.Errorf("run %d: no cut at consulted boundary %d", k, saveAt)
	}
	if !reflect.DeepEqual(each.saved, one.saved) {
		return fmt.Errorf("cuts at %d diverged:\n per-actor %+v\n one context %+v", saveAt, each.saved, one.saved)
	}
	crossed, err := c.epochsLeg(s.Iterations, hook, -1, tpdf.WithResume(one.saved), perActor)
	if err != nil {
		return fmt.Errorf("one context's cut at %d resumed per-actor: %w", saveAt, err)
	}
	if err := crossed.equal(fmt.Sprintf("one context's cut at %d resumed per-actor", saveAt), one); err != nil {
		return err
	}

	if err := c.checkCut(rng, perActor); err != nil {
		return fmt.Errorf("per-actor contexts: %w", err)
	}

	if panics, _ := c.faults(); len(panics) > 0 {
		ref, refSeq, err := c.faultedRun(true)
		if err != nil {
			return fmt.Errorf("one context, recovered run: %w", err)
		}
		got, gotSeq, err := c.faultedRun(true, perActor)
		if err != nil {
			return fmt.Errorf("per-actor contexts, recovered run: %w", err)
		}
		return compareRuns("recovered per-actor vs recovered one context", got, ref, gotSeq, refSeq)
	}
	return nil
}
