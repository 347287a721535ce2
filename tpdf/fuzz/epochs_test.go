package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/gen"
	"repro/internal/sinkrec"
	"repro/tpdf"
)

// epochPlan draws a run length k (possibly past the end of the run) and
// returns it with the hook that applies the schedule's rebinds and answers
// Run k — shortened where the next scheduled rebind needs the hook sooner —
// and one of the boundaries that hook is consulted at, drawn for the leg to
// keep its cut.
func (c *Case) epochPlan(rng *rand.Rand) (k int64, hook func(int64) tpdf.Verdict, saveAt int64) {
	s := c.Schedule
	k = 1 + rng.Int63n(s.Iterations+2)
	params := map[int64]map[string]int64{}
	for _, rb := range s.Rebinds {
		params[rb.At] = rb.Params
	}
	hook = func(completed int64) tpdf.Verdict {
		n := k
		for _, rb := range s.Rebinds {
			if rb.At > completed && rb.At-completed < n {
				n = rb.At - completed
			}
		}
		return tpdf.Verdict{Params: params[completed], Run: n}
	}
	var consulted []int64
	for at := int64(0); at < s.Iterations; at += hook(at).Run {
		consulted = append(consulted, at)
	}
	return k, hook, consulted[rng.Intn(len(consulted))]
}

// epochsLeg is one Stream run of the epochs pair under a boundary hook:
// its result, sink sequences, final cut (the last one, taken at run end) and
// the cut taken on entering boundary saveAt (nil when there is none).
type epochsLeg struct {
	res   *tpdf.ExecResult
	seq   map[string][]int64
	final *tpdf.Checkpoint
	saved *tpdf.Checkpoint
}

// equal compares the leg with the reference leg: results, sink sequences
// and the final checkpoint.
func (l *epochsLeg) equal(label string, want *epochsLeg) error {
	if err := compareRuns(label, l.res, want.res, l.seq, want.seq); err != nil {
		return err
	}
	if !reflect.DeepEqual(l.final, want.final) {
		return fmt.Errorf("%s: final checkpoints diverged:\n got %+v\nwant %+v", label, l.final, want.final)
	}
	return nil
}

func (c *Case) epochsLeg(iters int64, hook func(int64) tpdf.Verdict, saveAt int64, extra ...tpdf.Option) (*epochsLeg, error) {
	rec := sinkrec.New(gen.SinkNodes(c.Graph))
	leg := &epochsLeg{}
	opts := append([]tpdf.Option{
		tpdf.WithParams(c.Schedule.Base),
		tpdf.WithIterations(iters),
		tpdf.WithUserState(rec.Snapshot, rec.Restore),
		tpdf.WithBoundary(hook),
		tpdf.WithCheckpoints(func(ck *tpdf.Checkpoint) {
			leg.final = ck.Clone()
			if ck.Completed == saveAt {
				leg.saved = leg.final
			}
		}),
	}, extra...)
	res, err := tpdf.Stream(c.Graph, rec.Behaviors(), opts...)
	leg.res, leg.seq = res, rec.Seq()
	return leg, err
}

// CheckEpochs asserts invariant 7: how long a boundary verdict lets the
// engine run before it consults the hook again does not change what the
// run computes. For a run length k drawn from the case seed (including k
// past the end of the run), a run whose hook answers Run k — shortened only
// where the schedule's next rebind needs the hook sooner — equals the same
// run with Run 1 at every boundary: firings, leftovers in FIFO order, sink
// payload streams and the final checkpoint, across the rebinds applied at
// the consulted boundaries. A fresh engine resumed from the cut at the
// opening of one of those k-iteration epochs asks the hook there again and
// lands in the same place; and an epoch cut short from another goroutine at
// a seeded point stops at an iteration boundary whose state equals Execute
// at the count the hook was told.
func CheckEpochs(c *Case) error {
	s := c.Schedule
	rng := rand.New(rand.NewSource(s.Seed ^ 0x65706f636873)) // "epochs"
	k, long, saveAt := c.epochPlan(rng)

	want, err := c.epochsLeg(s.Iterations, func(completed int64) tpdf.Verdict {
		return tpdf.Verdict{Params: long(completed).Params, Run: 1}
	}, -1)
	if err != nil {
		return fmt.Errorf("run 1: %w", err)
	}
	got, err := c.epochsLeg(s.Iterations, long, saveAt)
	if err != nil {
		return fmt.Errorf("run %d: %w", k, err)
	}
	if err := got.equal(fmt.Sprintf("run %d vs run 1", k), want); err != nil {
		return err
	}

	if got.saved == nil {
		return fmt.Errorf("run %d: no cut at consulted boundary %d", k, saveAt)
	}
	resumed, err := c.epochsLeg(s.Iterations, long, -1, tpdf.WithResume(got.saved))
	if err != nil {
		return fmt.Errorf("resume from the cut at %d: %w", saveAt, err)
	}
	if err := resumed.equal(fmt.Sprintf("resumed at %d (run %d) vs run 1", saveAt, k), want); err != nil {
		return err
	}
	return c.checkCut(rng)
}

// checkCut is the cut-short leg of CheckEpochs (and, with extra selecting
// the other clustering, of CheckContexts): one epoch several times the
// schedule's length, at the base valuation, whose Cut a second goroutine
// closes once a seeded sink firing has happened.
func (c *Case) checkCut(rng *rand.Rand, extra ...tpdf.Option) error {
	g, s := c.Graph, c.Schedule
	sinks := gen.SinkNodes(g)
	horizon := 4*s.Iterations + 8
	trigger := sinks[rng.Intn(len(sinks))]
	fireAt := rng.Int63n(2 * s.Iterations)

	tripped, cut, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		select {
		case <-tripped:
			close(cut)
		case <-done:
		}
	}()
	defer close(done)

	rec := sinkrec.New(sinks)
	behaviors := rec.Behaviors()
	record, fired := behaviors[trigger], int64(0)
	behaviors[trigger] = func(f *tpdf.Firing) error {
		if fired == fireAt {
			close(tripped)
		}
		fired++
		return record(f)
	}
	// Consulted once, the epoch ran out before the cut landed; consulted
	// twice, the second count is where the cut ended it.
	stoppedAt, calls := horizon, 0
	got, err := tpdf.Stream(g, behaviors, append([]tpdf.Option{
		tpdf.WithParams(s.Base),
		tpdf.WithIterations(horizon),
		tpdf.WithBoundary(func(completed int64) tpdf.Verdict {
			if calls++; calls == 1 {
				return tpdf.Verdict{Run: horizon, Cut: cut}
			}
			stoppedAt = completed
			return tpdf.Verdict{Stop: true}
		})}, extra...)...)
	if err != nil {
		return fmt.Errorf("cut run: %w", err)
	}
	if stoppedAt < 1 {
		// The cut fires from inside a firing, so its iteration had begun.
		return fmt.Errorf("cut run: %s fired %d times but the hook was told %d completed iterations", trigger, fired, stoppedAt)
	}
	execRec := sinkrec.New(sinks)
	want, err := tpdf.Execute(g, execRec.Behaviors(), tpdf.WithParams(s.Base), tpdf.WithIterations(stoppedAt))
	if err != nil {
		return fmt.Errorf("execute %d iterations: %w", stoppedAt, err)
	}
	return compareRuns(fmt.Sprintf("cut at %d of %d vs Execute", stoppedAt, horizon), got, want, rec.Seq(), execRec.Seq())
}
