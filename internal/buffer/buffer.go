// Package buffer computes the minimum channel-buffer requirements that the
// paper's Fig. 8 compares: per-edge high-water marks of TPDF executions
// (with the control actor removing the unused branch) against the CSDF
// baseline where every edge stays active. It also provides the ablation in
// which the TPDF graph is forced to keep both branches live, isolating the
// contribution of dynamic topology changes.
package buffer

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/symb"
)

// Point is one Fig. 8 data point.
type Point struct {
	Beta int64
	N    int64
	// TPDF and CSDF are the measured total buffer sizes (token counts) from
	// token-accurate simulation.
	TPDF int64
	CSDF int64
	// PaperTPDF and PaperCSDF are the paper's analytic values
	// 3+β(12N+L) and β(17N+L).
	PaperTPDF int64
	PaperCSDF int64
	// Forced is the ablation: the TPDF graph executed with both branches
	// active (wait-all transaction), measuring what dynamic topology saves.
	Forced int64
}

// Improvement returns the relative buffer saving (CSDF-TPDF)/CSDF.
func (p Point) Improvement() float64 {
	if p.CSDF == 0 {
		return 0
	}
	return float64(p.CSDF-p.TPDF) / float64(p.CSDF)
}

// OFDMPoint measures one parameter combination. Three token-accurate runs
// back one point: TPDF with branch selection, the CSDF baseline, and the
// forced-wait-all ablation. The two TPDF runs share one simulator (the
// ablation is the same graph with the decisions removed), and all three
// use the buffers-only fast path since only high-water totals matter.
// One-shot convenience over a fresh ofdmSweepWorker; sweeps reuse the
// worker across points instead.
func OFDMPoint(params apps.OFDMParams) (Point, error) {
	w, err := newOFDMSweepWorker(params)
	if err != nil {
		return Point{
			Beta:      params.Beta,
			N:         params.N,
			PaperTPDF: apps.PaperTPDFBuffer(params),
			PaperCSDF: apps.PaperCSDFBuffer(params),
		}, err
	}
	return w.point(params)
}

// OFDMSweep reproduces the Fig. 8 series: buffer size as a function of the
// vectorization degree β for each symbol length N.
func OFDMSweep(betas []int64, ns []int64, m, l int64) ([]Point, error) {
	return OFDMSweepParallel(betas, ns, m, l, 1)
}

// ofdmSweepWorker is the per-worker state of the sharded Fig. 8 grid: the
// TPDF and CSDF graphs compiled once, one pooled simulator per graph, and
// the shared branch decision. Every point the worker shards is a
// Rebind+Reset+Run cycle — no graph construction, no instantiation, no
// allocation once the simulators are warm.
type ofdmSweepWorker struct {
	tprog, cprog *core.Program
	tsim, csim   *sim.Simulator
	decide       map[string]sim.DecideFunc
}

func newOFDMSweepWorker(params apps.OFDMParams) (*ofdmSweepWorker, error) {
	w := &ofdmSweepWorker{}
	tg := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(tg, params.M)
	if err != nil {
		return nil, err
	}
	w.decide = decide
	if w.tprog, err = core.Compile(tg); err != nil {
		return nil, fmt.Errorf("buffer: TPDF compile: %v", err)
	}
	if w.cprog, err = core.Compile(apps.OFDMCSDF(params)); err != nil {
		return nil, fmt.Errorf("buffer: CSDF compile: %v", err)
	}
	return w, nil
}

// point measures one parameter combination, exactly as OFDMPoint does —
// TPDF with branch selection, the CSDF baseline, the forced-wait-all
// ablation — but through the worker's compiled programs.
func (w *ofdmSweepWorker) point(params apps.OFDMParams) (Point, error) {
	pt := Point{
		Beta:      params.Beta,
		N:         params.N,
		PaperTPDF: apps.PaperTPDFBuffer(params),
		PaperCSDF: apps.PaperCSDFBuffer(params),
	}
	env := symb.Env(params.Env())

	if err := w.tprog.Rebind(env); err != nil {
		return pt, fmt.Errorf("buffer: TPDF rebind: %v", err)
	}
	if w.tsim == nil {
		ts, err := sim.NewSimulatorFromProgram(w.tprog, sim.Config{Decide: w.decide, BuffersOnly: true})
		if err != nil {
			return pt, fmt.Errorf("buffer: TPDF setup: %v", err)
		}
		w.tsim = ts
	} else {
		w.tsim.SetDecide(w.decide)
		if err := w.tsim.BindProgram(w.tprog); err != nil {
			return pt, err
		}
	}
	tres, err := w.tsim.Run()
	if err != nil {
		return pt, fmt.Errorf("buffer: TPDF run: %v", err)
	}
	pt.TPDF = tres.TotalBuffer()

	if err := w.cprog.Rebind(env); err != nil {
		return pt, fmt.Errorf("buffer: CSDF rebind: %v", err)
	}
	if w.csim == nil {
		cs, err := sim.NewSimulatorFromProgram(w.cprog, sim.Config{BuffersOnly: true})
		if err != nil {
			return pt, fmt.Errorf("buffer: CSDF setup: %v", err)
		}
		w.csim = cs
	} else if err := w.csim.BindProgram(w.cprog); err != nil {
		return pt, err
	}
	cres, err := w.csim.Run()
	if err != nil {
		return pt, fmt.Errorf("buffer: CSDF run: %v", err)
	}
	pt.CSDF = cres.TotalBuffer()

	// Ablation: same TPDF graph, no selection — every mode defaults to
	// wait-all, so both demapping branches execute and the transaction
	// needs both inputs buffered.
	w.tsim.SetDecide(nil)
	w.tsim.Reset()
	fres, err := w.tsim.Run()
	if err != nil {
		return pt, fmt.Errorf("buffer: forced run: %v", err)
	}
	pt.Forced = fres.TotalBuffer()
	return pt, nil
}

// OFDMSweepParallel shards the β×N grid across up to parallel workers
// (pool.GridWorkers: a small grid runs inline whatever parallel says).
// Points are written by grid index, so the result order — N-major, β-minor,
// exactly OFDMSweep's — is independent of the worker count and a parallel
// sweep is byte-identical to a sequential one. Each worker owns one
// compiled Program + Simulator pair per graph, reused across every point
// it shards: a point costs a rebind and three simulator runs, never a
// fresh instantiation.
func OFDMSweepParallel(betas []int64, ns []int64, m, l int64, parallel int) ([]Point, error) {
	out := make([]Point, len(ns)*len(betas))
	if len(out) == 0 {
		return out, nil
	}
	// A worker's setup compiles two graphs; GridWorkers keeps a second
	// worker out until the grid is large enough to amortize that (every
	// point is three one-iteration runs).
	parallel = pool.GridWorkers(len(out), 1, parallel)
	workers := make([]*ofdmSweepWorker, parallel)
	err := pool.RunWorkers(len(out), parallel, func(w, i int) error {
		n, beta := ns[i/len(betas)], betas[i%len(betas)]
		params := apps.OFDMParams{Beta: beta, M: m, N: n, L: l}
		if workers[w] == nil {
			st, err := newOFDMSweepWorker(params)
			if err != nil {
				return err
			}
			workers[w] = st
		}
		pt, err := workers[w].point(params)
		if err != nil {
			return err
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeanImprovement averages the relative saving across points.
func MeanImprovement(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	var s float64
	for _, p := range points {
		s += p.Improvement()
	}
	return s / float64(len(points))
}
