// Command bench is the repository's benchmark: five long-run workloads
// with noise-proofed end-to-end metrics, and a traced run that prints an
// outside-in per-layer cost ladder. BENCHMARK.json at the repository root
// fixes the names; README.md in this directory explains every choice.
//
//	bench -workload serve-pump -seed 3 -seconds 20 -trace 0   # end-to-end
//	bench -workload serve-pump -seed 3 -seconds 20 -trace 1   # per-layer
//	bench -selfcheck                                          # two full sets, compared
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to standard
// error. Any failed or wrong-output op makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// benchProcs is the GOMAXPROCS the command pins itself to, so that numbers
// from different machines at least agree on the parallelism they measured
// (the stack had only ever been measured on one CPU before this
// benchmark). Tests call run directly and keep the GOMAXPROCS go test
// gave them.
const benchProcs = 2

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command: it returns the exit code and writes the result line
// (or the -list and -selfcheck tables) to stdout.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed for the generated inputs: walk, visiting order, sweep grid")
	seconds := fs.Int("seconds", 20, "length of the timed section, in one-second blocks")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "0.1 s sections: exercises every code path, measures nothing")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice and compare against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition (for -selfcheck bounds)")
	traceOut := fs.String("trace-out", "", "Chrome-trace file of the traced run (default .bench_build/trace-<workload>.json)")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads() {
			fmt.Fprintf(stdout, "%-14s %s\n", w.name, w.why)
		}
		return 0
	}
	if *seconds < 1 {
		logf("-seconds must be at least 1")
		return 2
	}
	sh := runShape(*seconds, *quick)

	if *selfcheck {
		if err := runSelfcheck(stdout, *spec, *seed, sh); err != nil {
			logf("selfcheck: %v", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		logf("unknown workload %q (try -list)", *name)
		return 2
	}
	var res result
	var err error
	if *trace != 0 {
		out := *traceOut
		if out == "" {
			out = ".bench_build/trace-" + w.name + ".json"
		}
		res, err = runTraced(w, *seed, sh, out)
	} else {
		res, err = runEndToEnd(w, *seed, sh)
	}
	if err != nil {
		logf("%v", err)
		if res.Metrics == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		logf("encoding result: %v", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}
