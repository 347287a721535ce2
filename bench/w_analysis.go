package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/tpdf"
	"repro/tpdf/fuzz"
)

// analysisGolden is the reviewed expected output of the analysis op: the
// verdicts, repetition vectors and bounds of every analyzed graph, every
// sweep point's total buffer, the minimal capacities and the schedule
// makespan. It does not depend on the seed (the seed only orders the
// sweep grid), so one file covers every run.
//
//go:embed testdata/analysis.golden
var analysisGolden string

// analysisGenSeeds are the generator seeds of the four generated graphs
// the op analyzes beside the built-ins; constants for the reason given at
// fleetGenSeeds.
var analysisGenSeeds = [4]int64{1, 9, 19, 23}

// Sweep axes: β = 1..16 and N = 32..512 in steps of 32. The seed permutes
// each axis, which reorders the grid (and so the rebind sequence) without
// changing the set of valuations or the work. 16×16 and not 4×4: a point
// costs ~14 µs against ~1 ms to analyze one graph, and the sweep — 256
// never-repeated valuations through core rebind — has to be a share of the
// op that a change to rebind can move.
var sweepBetas, sweepNs = sweepAxes()

func sweepAxes() (betas, ns [16]int64) {
	for i := range betas {
		betas[i] = int64(i + 1)
		ns[i] = int64(32 * (i + 1))
	}
	return betas, ns
}

// minbufParams is the valuation MinimalBuffers runs at; the existing tests
// assert that its capacities sum to the paper's closed form there.
var minbufParams = tpdf.OFDMParams{Beta: 5, M: 4, N: 64, L: 1}

// analyzed is what the op keeps of one graph's Report.
type analyzed struct {
	name                            string
	consistent, safe, live, bounded bool
	q                               string
	bound                           int64
}

func (a analyzed) String() string {
	return fmt.Sprintf("graph %s consistent=%v safe=%v live=%v bounded=%v q=%s bound=%d",
		a.name, a.consistent, a.safe, a.live, a.bounded, a.q, a.bound)
}

// analysisOutput is everything one analysis op computes.
type analysisOutput struct {
	graphs   []analyzed
	points   map[[2]int64]int64 // (beta, N) -> TotalBuffer
	minCaps  []int64
	makespan int64
	firings  int
}

// text renders the output canonically (points sorted), the form the
// golden file holds.
func (o *analysisOutput) text() string {
	var sb strings.Builder
	for _, a := range o.graphs {
		sb.WriteString(a.String())
		sb.WriteByte('\n')
	}
	keys := make([][2]int64, 0, len(o.points))
	for k := range o.points {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int64) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	for _, k := range keys {
		fmt.Fprintf(&sb, "point beta=%d N=%d total=%d\n", k[0], k[1], o.points[k])
	}
	fmt.Fprintf(&sb, "minbuf beta=%d N=%d caps=%v\n", minbufParams.Beta, minbufParams.N, o.minCaps)
	fmt.Fprintf(&sb, "schedule fig2 p=2 pes=4 firings=%d makespan=%d\n", o.firings, o.makespan)
	return sb.String()
}

// equal compares two outputs field by field; ops use it instead of
// rendering text so that checking costs little beside the work checked.
func (o *analysisOutput) equal(w *analysisOutput) error {
	if len(o.graphs) != len(w.graphs) {
		return fmt.Errorf("analyzed %d graphs, want %d", len(o.graphs), len(w.graphs))
	}
	for i, want := range w.graphs {
		if o.graphs[i] != want {
			return fmt.Errorf("got %v, want %v", o.graphs[i], want)
		}
	}
	if len(o.points) != len(w.points) {
		return fmt.Errorf("swept %d points, want %d", len(o.points), len(w.points))
	}
	for k, want := range w.points {
		if got := o.points[k]; got != want {
			return fmt.Errorf("point beta=%d N=%d: total buffer %d, want %d", k[0], k[1], got, want)
		}
	}
	if !slices.Equal(o.minCaps, w.minCaps) {
		return fmt.Errorf("minimal capacities %v, want %v", o.minCaps, w.minCaps)
	}
	if o.makespan != w.makespan || o.firings != w.firings {
		return fmt.Errorf("schedule %d firings makespan %d, want %d and %d", o.firings, o.makespan, w.firings, w.makespan)
	}
	return nil
}

// analysisPlan is the workload's seeded input: graph texts and the grid.
type analysisPlan struct {
	texts []string
	grid  []map[string]int64
}

func newAnalysisPlan(seed int64) (*analysisPlan, error) {
	ap := &analysisPlan{}
	for _, name := range tpdf.BuiltinNames() {
		g, err := tpdf.Builtin(name)
		if err != nil {
			return nil, err
		}
		ap.texts = append(ap.texts, tpdf.Format(g))
	}
	for _, gs := range analysisGenSeeds {
		ap.texts = append(ap.texts, tpdf.Format(fuzz.Graph(gs, fuzz.GraphConfig{})))
	}
	rng := rand.New(rand.NewSource(seed))
	bp, np := rng.Perm(len(sweepBetas)), rng.Perm(len(sweepNs))
	for _, bi := range bp {
		for _, ni := range np {
			ap.grid = append(ap.grid, map[string]int64{"beta": sweepBetas[bi], "N": sweepNs[ni]})
		}
	}
	return ap, nil
}

// analysisState is the set-up product the op reuses: the OFDM scenario and
// the scheduled graph, which an op takes as given the way a tool holding a
// loaded project would. Parsing, compiling and analyzing are redone by
// every op; they are the work.
type analysisState struct {
	ofdm *tpdf.Scenario
	fig2 *tpdf.Graph
}

// frontEnd takes every graph text through parse, compile and analyze.
func (ap *analysisPlan) frontEnd(tr *tracer) ([]analyzed, error) {
	out := make([]analyzed, 0, len(ap.texts))
	for _, text := range ap.texts {
		sp := tr.begin("graphio.parse")
		g, err := tpdf.Parse(text)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("core.compile_skeleton")
		_, err = tpdf.Compile(g)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		sp = tr.begin("analysis.analyze")
		rep := tpdf.Analyze(g)
		tr.end(sp)
		if rep.Err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, rep.Err)
		}
		out = append(out, analyzed{name: rep.GraphName, consistent: rep.Consistent, safe: rep.RateSafe,
			live: rep.Live, bounded: rep.Bounded, q: rep.RepetitionVector, bound: rep.BufferBound})
	}
	return out, nil
}

// run is one analysis op.
func (ap *analysisPlan) run(tr *tracer, st *analysisState) (*analysisOutput, error) {
	out := &analysisOutput{points: make(map[[2]int64]int64, len(ap.grid))}
	var err error
	if out.graphs, err = ap.frontEnd(tr); err != nil {
		return nil, err
	}
	sp := tr.begin("sim.sweep")
	pts, err := tpdf.Sweep(st.ofdm.Graph, ap.grid, tpdf.WithDecisions(st.ofdm.Decide))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	for _, p := range pts {
		out.points[[2]int64{p.Params["beta"], p.Params["N"]}] = p.TotalBuffer
	}
	sp = tr.begin("sim.minimal_buffers")
	out.minCaps, err = tpdf.MinimalBuffers(st.ofdm.Graph, tpdf.WithDecisions(st.ofdm.Decide),
		tpdf.WithParams(map[string]int64{"beta": minbufParams.Beta, "N": minbufParams.N}))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("minimal buffers: %w", err)
	}
	sp = tr.begin("sched.schedule")
	sch, err := tpdf.Schedule(st.fig2, tpdf.WithParam("p", 2), tpdf.WithProcessors(4))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	out.makespan, out.firings = sch.Makespan, sch.Firings
	return out, nil
}

// checkClosedForms cross-checks the OFDM numbers against the paper's
// Fig. 8 closed form 3 + β(12N+L), the equality the repository's own tests
// assert for simulated totals and for the sum of minimal capacities.
func (o *analysisOutput) checkClosedForms() error {
	def := tpdf.DefaultOFDM()
	for k, got := range o.points {
		p := tpdf.OFDMParams{Beta: k[0], M: def.M, N: k[1], L: def.L}
		if want := tpdf.PaperTPDFBuffer(p); got != want {
			return fmt.Errorf("point beta=%d N=%d: total buffer %d, paper closed form %d", k[0], k[1], got, want)
		}
	}
	var sum int64
	for _, c := range o.minCaps {
		sum += c
	}
	if want := tpdf.PaperTPDFBuffer(minbufParams); sum != want {
		return fmt.Errorf("minimal capacities sum to %d, paper closed form %d", sum, want)
	}
	return nil
}

func analysisWorkload() workload {
	return workload{
		name: "analysis",
		why:  "parse, compile, analyze, sweep, minimal buffers and schedule: graphio/symb/core/analysis/sim/sched do everything, engine and serve nothing",
		prepare: func(seed int64) (*plan, error) {
			ap, err := newAnalysisPlan(seed)
			if err != nil {
				return nil, err
			}
			setup := func(tr *tracer) (*analysisState, error) {
				if _, err := ap.frontEnd(tr); err != nil {
					return nil, err
				}
				ofdm, err := tpdf.BuiltinScenario("ofdm", nil)
				if err != nil {
					return nil, err
				}
				fig2, err := tpdf.Builtin("fig2")
				if err != nil {
					return nil, err
				}
				return &analysisState{ofdm: ofdm, fig2: fig2}, nil
			}
			// The reference is set-up's first pass, held to the golden file
			// and the closed forms before any op is timed.
			st, err := setup(nil)
			if err != nil {
				return nil, err
			}
			want, err := ap.run(nil, st)
			if err != nil {
				return nil, err
			}
			if err := want.checkClosedForms(); err != nil {
				return nil, err
			}
			if got := want.text(); got != analysisGolden {
				return nil, fmt.Errorf("analysis output differs from testdata/analysis.golden:\n%s", got)
			}
			key := fmt.Sprintf("analyze %d graphs, sweep %v", len(ap.texts), ap.grid)
			return &plan{
				opKey: func(int) string { return key },
				setup: func(tr *tracer) (*live, error) {
					st, err := setup(tr)
					if err != nil {
						return nil, err
					}
					return &live{
						op: func(tr *tracer, _ int) error {
							got, err := ap.run(tr, st)
							if err != nil {
								return err
							}
							return got.equal(want)
						},
						teardown: func() error { return nil },
					}, nil
				},
			}, nil
		},
	}
}
