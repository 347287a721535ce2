package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/faultinject"
	"repro/tpdf"
)

// CheckRows asserts invariant 9: the engine's per-run scenario table —
// a valuation bound and scheduled once, revisited by a pointer swap — does
// not change what a run computes. A trajectory that cycles a few valuations
// for three laps, changing at every boundary of one warm Stream (so every
// valuation is revisited), equals the same trajectory as a chain of cold
// engines — one Stream per boundary, each resumed from the previous leg's
// final checkpoint, so every changed boundary there is a first visit in an
// empty table: firings, leftovers in FIFO order, sink sequences, final
// checkpoint; under one context and under per-actor contexts; with a rebind
// abort injected on a first visit and on a revisit (fatal without a
// handler); from a cut mid-trajectory resumed into valuations the new run
// has not seen; and, where the declared ranges allow, over more valuations
// than the table holds followed by a return to the first (evicted then
// re-built ≡ never evicted). Where every valuation's iteration leaves the
// edges empty, the firings also equal Execute per valuation, summed.
func CheckRows(c *Case) error {
	if len(c.Graph.Params) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Schedule.Seed ^ 0x726f7773)) // "rows"
	if err := c.checkRows(c.valuations(rng, 3), 3); err != nil {
		return err
	}
	if wide := c.valuations(rng, 20); len(wide) == 20 {
		return c.checkRows(wide, 2)
	}
	return nil
}

// valuations lists the schedule's distinct valuations (base, then each
// rebind's cumulative one), topped up to n with seeded draws from the
// declared ranges where those hold that many.
func (c *Case) valuations(rng *rand.Rand, n int) []map[string]int64 {
	vals := []map[string]int64{c.Schedule.Base}
	add := func(v map[string]int64) {
		for _, have := range vals {
			if reflect.DeepEqual(have, v) {
				return
			}
		}
		vals = append(vals, v)
	}
	cur := c.Schedule.Base
	for _, rb := range c.Schedule.Rebinds {
		cur = copyParams(cur)
		for k, v := range rb.Params {
			cur[k] = v
		}
		add(cur)
	}
	for tries := 0; len(vals) < n && tries < 8*n; tries++ {
		v := copyParams(c.Schedule.Base)
		for _, p := range c.Graph.Params {
			lo := max(p.Min, 1)
			v[p.Name] = lo + rng.Int63n(max(p.Max, lo)-lo+1)
		}
		add(v)
	}
	return vals
}

func (c *Case) checkRows(vals []map[string]int64, laps int) error {
	g := c.Graph
	l := int64(len(vals))
	n := int64(laps) * l
	hook := func(completed int64) tpdf.Verdict {
		return tpdf.Verdict{Params: vals[completed%l], Run: 1}
	}
	perActor := tpdf.WithWorkers(len(g.Nodes))
	// abortPlan injects a rebind abort where vals[1] is first visited and
	// where it is revisited; a fault plan fires at the first rebind at or
	// after its K, so each leg gets only the faults of the boundaries it
	// crosses.
	abortPlan := func(from, to int64) tpdf.Option {
		var fs []faultinject.Fault
		for _, at := range []int64{1, l + 1} {
			if l > 1 && from <= at && at < to {
				fs = append(fs, faultinject.Fault{Kind: faultinject.KindRebindAbort, K: at})
			}
		}
		return tpdf.WithFaultPlan(faultinject.New(fs...))
	}
	for _, v := range []struct {
		name string
		opts func(from, to int64) []tpdf.Option
	}{
		{"plain", func(int64, int64) []tpdf.Option { return nil }},
		{"aborts", func(from, to int64) []tpdf.Option {
			return []tpdf.Option{abortPlan(from, to), tpdf.WithRebindAbortHandler(func(error) {})}
		}},
	} {
		warm, err := c.epochsLeg(n, hook, n/2, v.opts(0, n)...)
		if err != nil {
			return fmt.Errorf("%s: warm run: %w", v.name, err)
		}
		each, err := c.epochsLeg(n, hook, -1, append(v.opts(0, n), perActor)...)
		if err != nil {
			return fmt.Errorf("%s: warm run, per-actor contexts: %w", v.name, err)
		}
		if err := each.equal(v.name+": per-actor vs one context", warm); err != nil {
			return err
		}
		var cold *epochsLeg
		for i := int64(0); i < n; i++ {
			opts := v.opts(i, i+1)
			if cold != nil {
				opts = append(opts, tpdf.WithResume(cold.final))
			}
			if cold, err = c.epochsLeg(i+1, hook, -1, opts...); err != nil {
				return fmt.Errorf("%s: cold engine for iteration %d: %w", v.name, i, err)
			}
		}
		if err := warm.equal(fmt.Sprintf("%s: warm table vs %d cold engines", v.name, n), cold); err != nil {
			return err
		}
		if warm.saved == nil {
			return fmt.Errorf("%s: no cut at boundary %d", v.name, n/2)
		}
		// The resumed run crosses boundary n/2 again, faults included.
		resumed, err := c.epochsLeg(n, hook, -1, append(v.opts(n/2, n), tpdf.WithResume(warm.saved))...)
		if err != nil {
			return fmt.Errorf("%s: resumed at %d: %w", v.name, n/2, err)
		}
		if err := resumed.equal(fmt.Sprintf("%s: resumed at %d vs uninterrupted", v.name, n/2), warm); err != nil {
			return err
		}
		if v.name == "plain" {
			if err := c.checkSummed(vals, n, warm.res); err != nil {
				return err
			}
		}
	}
	if l > 1 {
		_, err := c.epochsLeg(n, hook, -1, abortPlan(0, n))
		if !errors.Is(err, tpdf.ErrRebindAborted) {
			return fmt.Errorf("aborted rebind without a handler: got %v, want ErrRebindAborted", err)
		}
	}
	return nil
}

// checkSummed is bench's stream-modes check: when one Execute iteration at
// every valuation leaves nothing on the edges, iterations are independent
// and a trajectory's firings are the sum over its iterations.
func (c *Case) checkSummed(vals []map[string]int64, n int64, got *tpdf.ExecResult) error {
	want := map[string]int64{}
	for i, v := range vals {
		res, err := tpdf.Execute(c.Graph, nil, tpdf.WithParams(v))
		if err != nil {
			return fmt.Errorf("execute at %v: %w", v, err)
		}
		if len(res.Remaining) != 0 {
			return nil
		}
		visits := (n-int64(i)-1)/int64(len(vals)) + 1
		for node, f := range res.Firings {
			want[node] += f * visits
		}
	}
	if !reflect.DeepEqual(got.Firings, want) {
		return fmt.Errorf("firings: warm run %v, Execute per valuation summed %v", got.Firings, want)
	}
	return nil
}
