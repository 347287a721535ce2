package fuzz

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/sinkrec"
	"repro/internal/symb"
	"repro/tpdf"
)

// Check runs the case through every invariant pair and returns the first
// violation, wrapped with the invariant's name ("tiers: ...",
// "recovery: ..."). A nil return means the case passed all nine.
func Check(c *Case) error {
	for _, ch := range invariants {
		if err := ch.fn(c); err != nil {
			return fmt.Errorf("%s: %w", ch.name, err)
		}
	}
	return nil
}

// invariants is the fixed check battery, in dependency-free order. The
// names are the stable vocabulary failure messages and shrinking use.
var invariants = []struct {
	name string
	fn   func(*Case) error
}{
	{"tiers", CheckTiers},
	{"rebind", CheckRebind},
	{"resume", CheckResume},
	{"recovery", CheckRecovery},
	{"durable", CheckDurable},
	{"skeleton", CheckSkeleton},
	{"epochs", CheckEpochs},
	{"contexts", CheckContexts},
	{"rows", CheckRows},
}

// reconfigure turns the schedule's rebind list into a Stream reconfigure
// plan: a pure function of the completed count, so resumed and reference
// runs follow the same parameter trajectory. Nil without rebinds.
func (c *Case) reconfigure() func(completed int64) map[string]int64 {
	if len(c.Schedule.Rebinds) == 0 {
		return nil
	}
	byAt := make(map[int64]map[string]int64, len(c.Schedule.Rebinds))
	for _, rb := range c.Schedule.Rebinds {
		byAt[rb.At] = rb.Params
	}
	return func(completed int64) map[string]int64 { return byAt[completed] }
}

func envOf(m map[string]int64) symb.Env {
	env := make(symb.Env, len(m))
	for k, v := range m {
		env[k] = v
	}
	return env
}

func copyParams(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// CheckTiers asserts invariant 1: Simulate, Execute and Stream agree at
// the base valuation — same per-node firing counts, same per-edge final
// token counts, and (Execute vs Stream) identical remaining payloads and
// sink observation sequences.
func CheckTiers(c *Case) error {
	g, s := c.Graph, c.Schedule
	sinks := SinkNodes(g)
	base := tpdf.WithParams(s.Base)
	iters := tpdf.WithIterations(s.Iterations)

	execRec := sinkrec.New(sinks)
	execRes, err := tpdf.Execute(g, execRec.Behaviors(), base, iters)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	streamRec := sinkrec.New(sinks)
	streamRes, err := tpdf.Stream(g, streamRec.Behaviors(), base, iters)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if !reflect.DeepEqual(execRes.Firings, streamRes.Firings) {
		return fmt.Errorf("firings: Execute %v, Stream %v", execRes.Firings, streamRes.Firings)
	}
	if !reflect.DeepEqual(execRes.Remaining, streamRes.Remaining) {
		return fmt.Errorf("remaining: Execute %v, Stream %v", execRes.Remaining, streamRes.Remaining)
	}
	if !reflect.DeepEqual(execRec.Seq(), streamRec.Seq()) {
		return fmt.Errorf("sink sequences: Execute %v, Stream %v", execRec.Seq(), streamRec.Seq())
	}

	simRes, err := tpdf.Simulate(g, base, iters)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	for ni, n := range g.Nodes {
		if simRes.Firings[ni] != execRes.Firings[n.Name] {
			return fmt.Errorf("node %s: Simulate fired %d, Execute %d",
				n.Name, simRes.Firings[ni], execRes.Firings[n.Name])
		}
	}
	_, low, err := g.Instantiate(envOf(s.Base))
	if err != nil {
		return fmt.Errorf("instantiate: %w", err)
	}
	for ei := range g.Edges {
		simTokens := simRes.Final[low.EdgeOf[ei]]
		execTokens := int64(len(execRes.Remaining[g.Edges[ei].Name]))
		if simTokens != execTokens {
			return fmt.Errorf("edge %s: Simulate left %d tokens, Execute %d",
				g.Edges[ei].Name, simTokens, execTokens)
		}
	}
	return nil
}

// lowSnapshot captures the concrete rate tables and repetition vector a
// valuation produces, whichever path built them.
type lowSnapshot struct {
	prod, cons [][]int64
	initial    []int64
	q, r       []int64
}

func snapInstantiate(g *tpdf.Graph, env symb.Env) (lowSnapshot, error) {
	cg, _, err := g.Instantiate(env)
	if err != nil {
		return lowSnapshot{}, fmt.Errorf("instantiate at %v: %w", env, err)
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		return lowSnapshot{}, fmt.Errorf("repetition vector at %v: %w", env, err)
	}
	return snapOf(cg, sol), nil
}

func snapRebind(prog *core.Program, env symb.Env) (lowSnapshot, error) {
	if err := prog.Rebind(env); err != nil {
		return lowSnapshot{}, fmt.Errorf("rebind at %v: %w", env, err)
	}
	return snapOf(prog.Concrete(), prog.Solution()), nil
}

func snapOf(cg *csdf.Graph, sol *csdf.Solution) lowSnapshot {
	var s lowSnapshot
	for ei := range cg.Edges {
		s.prod = append(s.prod, append([]int64(nil), cg.Edges[ei].Prod...))
		s.cons = append(s.cons, append([]int64(nil), cg.Edges[ei].Cons...))
		s.initial = append(s.initial, cg.Edges[ei].Initial)
	}
	s.q = append([]int64(nil), sol.Q...)
	s.r = append([]int64(nil), sol.R...)
	return s
}

// CheckRebind asserts invariant 2: in-place Rebind through one compiled
// program matches fresh Instantiate at the base valuation and at every
// valuation the schedule's rebinds walk through — twice, so rebinding
// back over visited valuations is loss-free.
func CheckRebind(c *Case) error {
	g := c.Graph
	prog, err := core.Compile(g)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	for round := 0; round < 2; round++ {
		for _, v := range c.valuations(nil, 0) {
			env := envOf(v)
			want, err := snapInstantiate(g, env)
			if err != nil {
				return err
			}
			got, err := snapRebind(prog, env)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("round %d valuation %v: rebind diverged from instantiate:\nrebind      %+v\ninstantiate %+v",
					round, env, got, want)
			}
		}
	}
	return nil
}

// baseOpts assembles the option set shared by every Stream leg of a
// stateful check: base valuation, user-state snapshotting, and the
// schedule's reconfigure plan when it has one.
func (c *Case) baseOpts(rec *sinkrec.Recorder, extra ...tpdf.Option) []tpdf.Option {
	o := []tpdf.Option{
		tpdf.WithParams(c.Schedule.Base),
		tpdf.WithUserState(rec.Snapshot, rec.Restore),
	}
	if reconf := c.reconfigure(); reconf != nil {
		o = append(o, tpdf.WithReconfigure(reconf))
	}
	return append(o, extra...)
}

func compareRuns(label string, got, want *tpdf.ExecResult, gotSeq, wantSeq map[string][]int64) error {
	if !reflect.DeepEqual(got.Firings, want.Firings) {
		return fmt.Errorf("%s: firings diverged:\n got %v\nwant %v", label, got.Firings, want.Firings)
	}
	if !reflect.DeepEqual(got.Remaining, want.Remaining) {
		return fmt.Errorf("%s: remaining tokens diverged:\n got %v\nwant %v", label, got.Remaining, want.Remaining)
	}
	if !reflect.DeepEqual(gotSeq, wantSeq) {
		return fmt.Errorf("%s: sink sequences diverged:\n got %v\nwant %v", label, gotSeq, wantSeq)
	}
	return nil
}

// CheckResume asserts invariant 3: a run stopped at a mid-point
// checkpoint and resumed in a fresh engine is byte-identical to one
// uninterrupted run — across rebind boundaries, since the reconfigure
// plan is a pure function of the completed count. Trivially true (and
// skipped) for single-iteration schedules.
func CheckResume(c *Case) error {
	g, s := c.Graph, c.Schedule
	if s.Iterations < 2 {
		return nil
	}
	want, wantSeq, saved, err := c.stoppedAt(s.Iterations / 2)
	if err != nil {
		return err
	}
	resRec := sinkrec.New(SinkNodes(g))
	got, err := tpdf.Stream(g, resRec.Behaviors(),
		c.baseOpts(resRec, tpdf.WithIterations(s.Iterations), tpdf.WithResume(saved))...)
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	return compareRuns("resume vs uninterrupted", got, want, resRec.Seq(), wantSeq)
}

// stoppedAt runs the schedule twice: uninterrupted (the reference result
// and sink sequences) and as a first leg of stopAt iterations, whose final
// cut it returns for a fresh engine to resume from.
func (c *Case) stoppedAt(stopAt int64) (want *tpdf.ExecResult, wantSeq map[string][]int64, saved *tpdf.Checkpoint, err error) {
	g, s := c.Graph, c.Schedule
	sinks := SinkNodes(g)
	refRec := sinkrec.New(sinks)
	want, err = tpdf.Stream(g, refRec.Behaviors(),
		c.baseOpts(refRec, tpdf.WithIterations(s.Iterations))...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("uninterrupted run: %w", err)
	}
	legRec := sinkrec.New(sinks)
	if _, err := tpdf.Stream(g, legRec.Behaviors(),
		c.baseOpts(legRec,
			tpdf.WithIterations(stopAt),
			tpdf.WithCheckpoints(func(ck *tpdf.Checkpoint) {
				if ck.Completed == stopAt {
					saved = ck.Clone()
				}
			}))...); err != nil {
		return nil, nil, nil, fmt.Errorf("first leg: %w", err)
	}
	if saved == nil {
		return nil, nil, nil, fmt.Errorf("no checkpoint captured at %d", stopAt)
	}
	return want, refRec.Seq(), saved, nil
}

// faults materializes the schedule's fault sites as an injection plan:
// the shared half (rebind aborts — they change the parameter trajectory,
// so the reference must share them) and the recovered-difference half
// (behavior panics). Aborts are dropped when the case cannot rebind.
func (c *Case) faults() (panics, shared []faultinject.Fault) {
	for _, p := range c.Schedule.Panics {
		panics = append(panics, faultinject.Fault{Kind: faultinject.KindPanic, Node: p.Node, K: p.K})
	}
	if c.reconfigure() != nil {
		for _, at := range c.Schedule.RebindAborts {
			shared = append(shared, faultinject.Fault{Kind: faultinject.KindRebindAbort, K: at})
		}
	}
	return panics, shared
}

// CheckRecovery asserts invariant 4: a run whose behaviors panic at the
// schedule's fault sites, recovered by restart from the newest cut, is
// byte-identical to a fault-free reference sharing the same rebind-abort
// schedule — aborted transactions leave no trace — and so is the same run
// under a stateful hook, which hands the plan out one entry per consultation
// whatever the count, so it is right only if a restart does not consult it
// again (called once per boundary). Skipped when the schedule injects nothing.
func CheckRecovery(c *Case) error {
	panics, shared := c.faults()
	if len(panics) == 0 && len(shared) == 0 {
		return nil
	}

	want, wantSeq, err := c.faultedRun(false)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	got, gotSeq, err := c.faultedRun(true)
	if err != nil {
		return fmt.Errorf("recovered run: %w", err)
	}
	if err := compareRuns("recovery vs reference", got, want, gotSeq, wantSeq); err != nil {
		return err
	}
	reconf := c.reconfigure()
	if len(panics) == 0 || reconf == nil {
		return nil
	}
	calls := int64(0)
	got, gotSeq, err = c.faultedRun(true, tpdf.WithReconfigure(func(int64) map[string]int64 {
		calls++
		return reconf(calls)
	}))
	if err != nil {
		return fmt.Errorf("recovered run, stateful hook: %w", err)
	}
	if boundaries := c.Schedule.Iterations - 1; calls != boundaries {
		return fmt.Errorf("recovered run: stateful hook called %d times over %d boundaries", calls, boundaries)
	}
	return compareRuns("recovery under a stateful hook vs reference", got, want, gotSeq, wantSeq)
}

// faultedRun is one Stream run of the whole schedule under its shared
// rebind-abort faults: with the behavior panics injected and recovered by
// restart from the newest cut, or without them as the fault-free reference.
func (c *Case) faultedRun(withPanics bool, extra ...tpdf.Option) (*tpdf.ExecResult, map[string][]int64, error) {
	panics, faults := c.faults()
	rec := sinkrec.New(SinkNodes(c.Graph))
	opts := append([]tpdf.Option{
		tpdf.WithIterations(c.Schedule.Iterations),
		tpdf.WithRebindAbortHandler(func(error) {}),
	}, extra...)
	if withPanics {
		faults = append(append([]faultinject.Fault(nil), panics...), faults...)
		opts = append(opts, tpdf.WithPanicRecovery(len(panics)+1))
	} else {
		opts = append(opts, tpdf.WithCheckpoints(nil))
	}
	opts = append(opts, tpdf.WithFaultPlan(faultinject.New(faults...)))
	res, err := tpdf.Stream(c.Graph, rec.Behaviors(), c.baseOpts(rec, opts...)...)
	return res, rec.Seq(), err
}

// CheckDurable asserts invariant 5: a checkpoint pushed through the
// durable codec — encode, decode, re-encode byte-identical — and resumed
// on a graph recompiled from the snapshot's own recorded text lands
// exactly where an uninterrupted run does. This is the cold-recovery
// path with the store's file layer factored out.
func CheckDurable(c *Case) error {
	g, s := c.Graph, c.Schedule
	stopAt := s.Iterations / 2
	if stopAt < 1 {
		stopAt = s.Iterations
	}
	want, wantSeq, saved, err := c.stoppedAt(stopAt)
	if err != nil {
		return err
	}

	snap := &durable.Snapshot{
		SessionID:  "fuzz",
		Tenant:     "fuzz",
		GraphText:  tpdf.Format(g),
		Checkpoint: saved,
	}
	enc, err := durable.Encode(nil, snap)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	dec, err := durable.Decode(enc)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	enc2, err := durable.Encode(nil, dec)
	if err != nil {
		return fmt.Errorf("re-encode: %w", err)
	}
	if !bytes.Equal(enc, enc2) {
		return fmt.Errorf("encode ∘ decode not a fixpoint: %d bytes vs %d", len(enc), len(enc2))
	}
	if dec.GraphText != snap.GraphText {
		return fmt.Errorf("graph text did not survive the codec")
	}
	cold, err := tpdf.Parse(dec.GraphText)
	if err != nil {
		return fmt.Errorf("recorded graph text does not parse: %w", err)
	}

	resRec := sinkrec.New(SinkNodes(g))
	got, err := tpdf.Stream(cold, resRec.Behaviors(),
		c.baseOpts(resRec, tpdf.WithIterations(s.Iterations), tpdf.WithResume(dec.Checkpoint))...)
	if err != nil {
		return fmt.Errorf("resume from decoded snapshot: %w", err)
	}
	return compareRuns("durable resume vs uninterrupted", got, want, resRec.Seq(), wantSeq)
}

// CheckSkeleton asserts invariant 6: two concurrent runs stamped from
// one shared compiled skeleton produce output byte-identical to a run
// that compiled freshly.
func CheckSkeleton(c *Case) error {
	g, s := c.Graph, c.Schedule

	compiled, err := tpdf.Compile(g)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	sinks := SinkNodes(g)
	refRec := sinkrec.New(sinks)
	want, err := tpdf.Stream(g, refRec.Behaviors(),
		c.baseOpts(refRec, tpdf.WithIterations(s.Iterations))...)
	if err != nil {
		return fmt.Errorf("fresh-compile run: %w", err)
	}

	const sessions = 2
	recs := make([]*sinkrec.Recorder, sessions)
	results := make([]*tpdf.ExecResult, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		i := i
		recs[i] = sinkrec.New(sinks)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = tpdf.Stream(g, recs[i].Behaviors(),
				c.baseOpts(recs[i],
					tpdf.WithIterations(s.Iterations),
					tpdf.WithCompiled(compiled))...)
		}()
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			return fmt.Errorf("stamped session %d: %w", i, errs[i])
		}
		if err := compareRuns(fmt.Sprintf("stamped session %d vs fresh compile", i),
			results[i], want, recs[i].Seq(), refRec.Seq()); err != nil {
			return err
		}
	}
	return nil
}
