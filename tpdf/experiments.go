package tpdf

import "repro/internal/experiments"

// ExperimentNames returns, in paper order, the names of every paper
// artifact the experiment harness can regenerate (figures f1..f8, table
// t6, ablations a1..a8).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one named table or figure and returns its
// rendering: that experiment's section of RunAllExperiments. quick trades
// fidelity for speed (smaller image, shorter sweeps). WithParallelism
// shards the experiment's internal parameter sweeps across a bounded
// worker pool; the rendering is byte-identical to a sequential run (modulo
// measured wall-clock times in t6).
func RunExperiment(name string, quick bool, opts ...Option) (string, error) {
	cfg := buildConfig(opts)
	return experiments.Run(name, experiments.Options{Quick: quick, Measure: true, Parallel: cfg.parallel})
}

// RunAllExperiments regenerates every paper artifact in order; partial
// output is returned even on error. WithParallelism fans the experiments
// out across a worker pool and additionally shards each experiment's
// parameter sweep; outputs are joined in paper order.
func RunAllExperiments(quick bool, opts ...Option) (string, error) {
	cfg := buildConfig(opts)
	return experiments.All(experiments.Options{Quick: quick, Measure: true, Parallel: cfg.parallel})
}
