package tpdf

import "repro/internal/experiments"

// ExperimentNames returns, in paper order, the names of every paper
// artifact the experiment harness can regenerate (figures f1..f8, table
// t6, ablations a1..a8).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one named table or figure and returns its
// rendering: that experiment's section of RunAllExperiments. quick trades
// fidelity for speed (smaller image, shorter sweeps). WithParallelism is
// the width of the pixel kernels behind t6 and a5 and of f8's grid shard
// (every other experiment runs inline); the rendering is byte-identical to
// a sequential run (modulo measured wall-clock times in t6).
func RunExperiment(name string, quick bool, opts ...Option) (string, error) {
	cfg := buildConfig(opts)
	return experiments.Run(name, experiments.Options{Quick: quick, Measure: true, Parallel: cfg.parallel})
}

// RunAllExperiments regenerates every paper artifact in order; partial
// output is returned even on error. WithParallelism runs the experiments
// side by side on a worker pool (and is RunExperiment's width within t6,
// a5 and f8); outputs are joined in paper order.
func RunAllExperiments(quick bool, opts ...Option) (string, error) {
	cfg := buildConfig(opts)
	return experiments.All(experiments.Options{Quick: quick, Measure: true, Parallel: cfg.parallel})
}
