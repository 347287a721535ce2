// Package repro reproduces "Transaction Parameterized Dataflow: A Model for
// Context-Dependent Streaming Applications" (Do, Louise, Cohen — DATE 2016)
// as a Go library.
//
// # Public API
//
// The tpdf package is the single supported way to use the library:
//
//   - tpdf.NewGraph: a fluent GraphBuilder with error accumulation — declare
//     kernels, control actors, Clocks, Select-duplicate and Transaction
//     actors, wire them with textual edge specs ("A[p] -> B[1]",
//     "CTL[1] => TR"), and check one error at Build;
//   - tpdf.Parse / tpdf.LoadFile / tpdf.Format: the textual .tpdf graph
//     format (shipped fixtures live in graphs/, regenerated by
//     cmd/gen-graphs); tpdf.Builtin serves the paper's application graphs
//     by name ("fig2", "ofdm", "edge", ...);
//   - tpdf.Analyze: the complete §III static-analysis chain — symbolic rate
//     consistency, control areas and rate safety, liveness by cycle
//     clustering, the Theorem 2 boundedness verdict, and the symbolic
//     buffer bound — consolidated into one Report;
//   - Execution comes in three tiers sharing one set of functional
//     options; each entry point reads the options its comment lists
//     (WithParams, WithIterations and WithContext are read by all three),
//     and today only Simulate honours WithDecisions — Execute and Stream
//     fire every actor wait-all (ROADMAP direction 6):
//     tpdf.Simulate is token-accurate discrete-event execution in virtual
//     time (firings, completion time, buffer high-water marks);
//     tpdf.Execute runs the graph at the payload level — user Behaviors
//     consume and produce real values — one firing at a time down a
//     sequential schedule; tpdf.Stream is the long-lived counterpart of
//     Execute: edges as single-producer/single-consumer ring buffers
//     sized from the analysis buffer bounds, WithReconfigure /
//     WithBoundary applying new parameter values only at transaction
//     boundaries, checkpoints and metrics. By default the calling goroutine
//     fires every actor in the order of the schedule the analysis computes;
//     WithWorkers(n >= 2) gives every actor its own goroutine (concurrent
//     behaviors, backpressure from ring capacity). The rings keep the
//     analysis-derived sizes under either, and Stream produces results
//     identical to Execute under either.
//     tpdf.Schedule list-schedules the canonical period onto a many-core
//     platform with the control-priority rule;
//   - tpdf.RunExperiment: the harness regenerating every table and figure
//     of the paper's evaluation;
//   - tpdf.Sweep: token-accurate simulation over a parameter grid
//     (tpdf.Grid builds the cartesian product), the programmatic face of
//     the paper's evaluation loops;
//   - tpdf/dsp and tpdf/imaging: the OFDM/FM-radio and edge-detection
//     substrates of the case studies.
//
// # Performance architecture
//
// The streaming engine executes a schedule and the §III analyses are a
// compile-time pass (≈ 45 µs a graph) on the caller's goroutine; only two
// kinds of driver are parallel — the grid shard with worker-owned compiled
// state and coarse CPU work (pixel kernels, whole experiments):
//
//   - the streaming engine (internal/engine, tpdf.Stream) executes the
//     schedule, not the actors: its unit of execution is a context, a loop
//     that fires the actors it owns in the order of the PASS built for the
//     active valuation, and context 0 is the goroutine that called Stream.
//     One context holds every actor by default, so a default run starts no
//     goroutine, an epoch is a function call, and with the
//     analysis-derived capacities every ring operation is one atomic load
//     — nothing spins, parks or crosses goroutines, and a ring wait that
//     no other context could end fails the run at once instead of parking.
//     Workers > 1 makes every actor its own context (the same loop, firing
//     body and barrier protocol, the same ring capacities; contexts
//     1..n−1 on goroutines spawned once per run and parked at transaction
//     barriers, a stall watchdog beside them) and the order is found by
//     blocking on the rings. The hot path is zero-allocation and, on one
//     context, free of locked instructions: each edge is a
//     single-producer/single-consumer ring buffer that moves a whole
//     firing's token batch per synchronization, not a channel operation
//     per token; each actor reuses one Firing whose In/Out maps are
//     materialized once, whose inputs are installed and whose outputs are
//     truncated by the firing body as it moves them (nodes without a
//     behavior never build a Firing at all); and the watchdog's progress
//     counters exist only under Workers > 1. A warm steady-state firing
//     performs zero heap allocations (TestStreamSteadyStateAllocs); the
//     price is that payload slices handed to a Behavior are valid only for
//     the duration of the firing;
//   - compile once, stamp per holder, bind once per scenario: the graph is
//     compiled once (a core.Skeleton, shared), and each run keeps a table of
//     scenario rows — a Program stamped from the skeleton and bound at one
//     valuation, the PASS built from the rings' occupancy, the ring
//     capacities it needs. A boundary that changes parameters looks its
//     valuation up (a linear scan over ≤ 16 integer keys) and, on a hit at
//     the occupancy the row's PASS started from, swaps to the row, grows
//     rings in place (never shrinks; leftover payloads stay on their edges
//     in FIFO order) and restarts rate-phase indexing: no rate evaluated, no
//     balance equation solved, no schedule built, no allocation
//     (TestRevisitedBoundaryAllocationFree). Only a first visit binds and
//     schedules; past 16 rows it recycles the least recently committed
//     row's Program, never the committed one's, so a run holds at most 16
//     stamped Programs (one, if it never changes parameters). A refused
//     valuation never touches the committed row, and the per-boundary
//     verdict (an injected fault) is asked on hits and misses alike. The
//     table is per run, not per Skeleton: rows are single-writer by
//     construction (the engine writes them only while every context is
//     parked) and first visits are not the cost.
//     Boundaries whose hook keeps the environment unchanged touch nothing;
//   - the engine stops the world only where somebody wants to change
//     something: the boundary hook (tpdf.WithBoundary) answers with a
//     Verdict that says how many iterations it is not needed for, and
//     those run as one epoch — one dispatch, one barrier wait, one
//     harvest, one cut (the state between two transactions, taken before
//     the hook; a run resumed from it asks the hook there again, and the
//     one in-process supervisor, tpdf.WithPanicRecovery, remembers the
//     verdict) — with an optional Cut channel that ends the epoch in
//     flight at the next iteration boundary every context can reach.
//     WithBarrier and WithReconfigure are that hook with one-iteration
//     verdicts. tpdf-serve answers a pump of N with Run N, so a pump is
//     one epoch, one durable cut and one flush, and a session is one
//     coroutine whatever its graph (its one context, an iter.Pull stack
//     that the pump's caller resumes with the verdict and that yields back
//     at the boundary acking the pump — no goroutine hand-off; a Context
//     is watched through context.AfterFunc, not by a goroutine), plus the
//     durable writer's goroutine when it persists;
//   - what executing the schedule bought, rung by rung (bench/run.sh
//     --trace 1, goroutine-per-actor parent → one context on one 2-core
//     box, seeds 1–3, wall-clock at machine.speed 0.6–1.0):
//     engine.ns_per_firing 565–642 → 166–339 (runner.ns_per_firing
//     211–330); engine.ns_per_token 442–502 → 130–266;
//     engine.parks_per_iter = wakes_per_iter 0.02–0.27 → 0;
//     engine.p2_over_p1 0.57–0.74 → 0.62–1.28 (the rung is six samples a
//     side and noisy; one context has nothing to gain or lose from a
//     second core); proc.cpu_ms_per_op on stream-steady 29–41 → 7.7–9.3;
//     serve.pump_per_iter_us 7.1–9.2 → 1.3–2.1; serve.c2_over_c1
//     0.95–1.30 → 2.4–3.7 and durable.c2_over_c1 1.51–1.66 → 2.05–2.75
//     (two clients no longer fight over ring spinning);
//     proc.live_heap_kb_per_session 64.2 → 61.6 only — a session's heap is
//     its rings and Program, not its goroutine stacks. The difference
//     rungs engine.changed_boundary_us_fresh / _revisit read higher
//     (8.9–12.5 → 12.1–19.3, 9.6–34.7 → 15.5–43.2) although the rebind
//     itself, timed directly, is unchanged at GOMAXPROCS 1 and the whole
//     one-iteration epoch halves (≈ 42 → 22 µs): on two cores the
//     boundary now runs right after a cross-thread wake;
//   - the simulator (internal/sim) has an allocation-free fast path: a
//     reusable Simulator preallocates all run state and is Reset between
//     runs, events move through a typed binary heap (no interface boxing),
//     cyclic rates advance through incremental phase cursors instead of
//     per-probe modulo, and a buffers-only mode skips trace bookkeeping
//     when callers need only high-water marks. A steady-state Reset+run
//     cycle performs zero heap allocations (BenchmarkSimReset);
//   - the static analysis runs on a symbolic kernel (internal/symb) that
//     keeps a polynomial as a canonical term slice and a rate with
//     denominator 1 on its numerator alone, and computes each port's cycle
//     rate once per analysis. Map-per-value parent → this kernel, same box,
//     bench/run.sh --workload analysis: ops_per_s 59–66 → 265–289,
//     allocs_per_op 73,084 → 12,100; --trace 1: analysis.analyze_us
//     696–913 → 39–45, graphio.parse_us 88–109 → 27–36,
//     core.compile_skeleton_us 37–39 → 15–23, serve.open_us 25–34 → 21–28,
//     proc.cpu_ms_per_op 19.5–20.4 → 4.6–4.7 (symb.eval_ns, the compiled
//     evaluator, unchanged at ≈ 208);
//   - parametric graphs compile once and rebind per valuation: core.Compile
//     lowers every symbolic rate to integer coefficient and factor tables
//     over a fixed parameter index (symb.ParamIndex, Expr.Compile) and
//     builds the concrete CSDF skeleton a single time; Program.Rebind then
//     re-evaluates the rate tables and the repetition vector in place —
//     no maps, no fresh csdf.Graph, and no rational arithmetic: a rate with
//     denominator 1 (every shipped and generated one) is one checked int64
//     multiply-add per term, and SolveInto propagates integer counts with
//     one gcd per spanning-tree edge. Rational parent → integer rebind,
//     same 2-core box, ten alternating 10 s pairs of bench/run.sh
//     --workload analysis: ops_per_s 252–266 → 404–429 (10/10),
//     allocs_per_op 11,958 → 10,239; --trace 1: symb.eval_ns 223 → 40,
//     core.rebind_us 6.1 → 1.5, sim.run_us_per_point 8.5 → 5.2; every other
//     workload within its bound. One-shot callers bind a Program too
//     (core.Bind); anything evaluating one graph at many valuations
//     (sweeps, probes) pairs it with a Simulator via
//     sim.NewSimulatorFromProgram and
//     cycles Rebind+BindProgram+Run, which is zero heap allocations per
//     warm sweep point (TestSweepSteadyStateAllocs, BenchmarkSweepRebind
//     vs BenchmarkSweepInstantiate) and byte-identical to fresh
//     instantiation (differential-tested over every Builtin under -race);
//   - grids shard with worker-owned compiled state: tpdf.Sweep and the
//     Fig. 8 buffer grid (buffer.OFDMSweepParallel) give each pool worker
//     its own Program+Simulator pair, reused across every point the worker
//     shards, and start a worker per 12 point-iterations (grid points ×
//     WithIterations, pool.GridWorkers), so 23 one-iteration points run
//     inline and 8 points of 16 iterations shard. The pixel kernels behind
//     the edge-detection and motion-estimation workloads shard rows over
//     the same bounded pool (internal/pool), and experiments.All runs whole
//     experiments side by side (tpdf.RunAllExperiments, tpdf-bench
//     -parallel) and fans out nowhere within one. WithParallelism sets the
//     budget of those and of nothing else; each writes results by index and
//     joins them in order, so a parallel run is byte-identical to a
//     sequential one (TestSweepParallelIdentical,
//     TestOFDMSweepParallelIdentical,
//     TestAllExperimentsParallelByteIdentical, under -race); tpdf.Sweep
//     honors WithContext and aborts mid-grid on cancellation;
//   - everything else runs inline, because that measured fastest: until
//     PR 24 Analyze fanned its liveness probes out (each worker compiling
//     the graph), MinimalBuffers speculated a k-ary bisection and seven
//     experiment generators nested a pool.Run, all selected by
//     WithParallelism and run by no benchmark workload. On the 2-core box
//     the probe fan-out cost Analyze ×1.5–2 on graphs with a cycle, the
//     speculation cost MinimalBuffers ×1.6–2 at width 4 (width 2 was the
//     sequential walk) and the inner experiment fan-outs were flat or lost,
//     while a 256-point Sweep gains ×1.8 at width 2 and a 23-point one of
//     100 iterations ×1.8–1.9. ROADMAP direction 4 keeps the measured
//     keep/delete table, parent → this tree at width 1 / 2 / 4, and the
//     grain measurement; ≥ 4 cores: unverified, so a probe-level fan-out
//     comes back only with a box that shows it winning;
//   - the list scheduler precomputes the platform's cluster-to-cluster
//     latency table (platform.LatencyTable) so PE selection is indexed
//     loads instead of per-pair grid walks, and its ready queue is a typed
//     heap;
//   - a performance change is judged one way: bench/run.sh, the benchmark
//     BENCHMARK.json declares (five output-checked workloads — steady
//     streaming, a rebind at every boundary, plain and durable serve pumps,
//     the analysis pipeline — with end-to-end ops/s, latency percentiles,
//     allocs/op and set-up time, plus a per-layer cost ladder under
//     --trace 1; bench/README.md has the protocol). It builds and runs the
//     parent commit and the change on the same machine, so there are no
//     committed timing baselines to go stale or to mistake machine class
//     for a regression. The allocation contracts are ordinary tests
//     (TestSimulatorSteadyStateAllocs, TestSweepSteadyStateAllocs,
//     internal/engine/hotpath_test.go);
//   - cmd/tpdf-bench -engine is the overhead gate only: it measures every
//     streaming workload bare, with a metrics registry attached and with
//     checkpointing armed but idle, in paired interleaved rounds inside
//     one process, and -metrics-overhead / -ckpt-overhead fail the run
//     when a decorated twin is statistically more than the budget (2% in
//     CI) slower than its base or allocates per iteration.
//
// # Service tier
//
// The tpdf/serve package and the tpdf-serve command host the library as a
// multi-tenant streaming + analysis service: a fleet of persistent Stream
// engines behind a small REST API, plus batch analyze/sweep endpoints
// coalesced onto a bounded worker budget (cmd/tpdf-serve's doc comment has
// the endpoint-by-endpoint usage):
//
//   - session lifecycle: a session is one client's engine, opened once and
//     parked at a transaction barrier between requests (a parked session
//     costs zero CPU — its engine is a coroutine suspended inside its
//     boundary hook, and a pump resumes it on the caller's goroutine).
//     Pump runs N iterations; parameter changes land only at transaction
//     boundaries, per the TPDF transaction rule; Drain stops cleanly at
//     the next barrier (in-flight firings complete, rings flush into the
//     final result), with a bounded deadline after which the engine is
//     cancelled. SIGTERM drains the whole fleet the same way;
//   - program-cache sharing rule: tpdf.Compile splits compilation from
//     execution state — an immutable CompiledGraph (the core.Skeleton:
//     parameter index, compiled rate tables, structural lowering) that any
//     number of engines may share, each stamping its own small mutable
//     Program from it at start. Sessions of the same graph (keyed by the
//     canonical tpdf.Format text) therefore pay one Compile+Analyze
//     fleet-wide, however many race to open it (asserted by test: N
//     sessions, one compile);
//   - the single-writer-per-session invariant survives sharing: a Program
//     is engine-private and rebound only at that engine's quiescent
//     barriers; the shared skeleton is never written after compilation.
//     Shared-versus-private runs are byte-identical, differential-tested
//     over every Builtin under -race (TestCompiledSharingMatchesFreshCompile);
//   - admission control keeps the fleet inside fixed bounds: session
//     slots, a bounded admission queue, per-tenant quotas, batch-worker
//     and program-cache capacity — saturation answers 429/503, never
//     unbounded memory — and only graphs carrying the Theorem 2
//     boundedness verdict are admitted, so a session's rings stay at their
//     analysis-derived capacities over an unbounded lifetime;
//   - durable sessions (tpdf-serve -data-dir): every session's consistent
//     barrier cut is persisted to a per-session append-only log —
//     asynchronous double-buffered capture on the barrier, checksummed
//     binary frames appended and fsynced (one write and one fsync per
//     ack, refused if the file is no longer the log at its path), the log
//     rewritten down to its newest K records every 64 appends, and a
//     synchronous flush before every pump acknowledgment so acked work
//     always survives SIGKILL. On restart the fleet is rebuilt from disk
//     (graphs recompiled from their recorded canonical text through the
//     shared program cache, sessions resumed from their newest valid
//     snapshot, a torn tail skipped by checksum); /healthz answers 503
//     "recovering" until done and /metrics carries the tpdf_durable_*
//     families. The internal/durable package holds the codec, store and
//     writer; tpdf-loadgen -crash-record / -crash-verify and the CI
//     durability job gate the kill-and-recover cycle at the binary level;
//   - cmd/tpdf-loadgen soaks a server (sessions × pumps at a set
//     concurrency, admission pushback retried as backpressure) and reports
//     per-endpoint latency percentiles; its zero-failed / zero-leaked
//     invariant is asserted by the CI soak, chaos and durability jobs, and
//     serve latency is judged by the serve-pump and serve-durable
//     workloads of bench/run.sh.
//
// # Reference stack and product stack
//
// A graph + valuation becomes rates in two places, on purpose. The product
// stack is a core.Program bound at the valuation (core.Bind, or Compile /
// a shared Skeleton + Rebind): the compiled evaluator fills the rate tables
// of one reusable csdf.Graph, SolveInto the repetition vector,
// Program.CanonicalPeriod the §III-D precedence graph, and every product
// entry point — Simulate, Schedule, GenerateCode, Stream, Sweep,
// MinimalBuffers, Analyze's liveness probes, the
// experiment drivers, tpdf/serve — reads them from there, so which
// valuations are legal has one answer. The reference stack is
// core.Graph.Instantiate (map-based symb.Expr.Eval into a fresh
// csdf.Graph) → csdf RepetitionVector → runner.Run, i.e. tpdf.Execute: an
// independent computation of the same answer, kept only as the oracle.
// Both stacks solve the balance equations with csdf.SolveInto, so its own
// oracle is the specification: TestSolveIntoMeetsTheBalanceEquations
// checks it against repetition vectors chosen before their graphs are
// built.
// Four invariant pairs cross the two (rebind, tiers, epochs, contexts),
// as do core's refusal-parity test and bench/'s output check. The rule:
// product code does not call Instantiate (CI's "one lowering" step greps
// for it), and the reference stack does not borrow the product lowering —
// a pair that compared a function with itself would check nothing.
//
// # Testing
//
// Beyond the unit and differential tests each package carries, the
// repository is fuzzed property-based: the differential harness in the
// _test.go files of tpdf/fuzz (over internal/gen) generates
// valid-by-construction TPDF graphs — random topologies including chains, fan-out/fan-in and cycles with initial
// tokens, parametric and cyclo-static rates, Transaction/Select-duplicate
// kernels — paired with execution schedules (base valuation, rebinds at
// transaction boundaries, pump cadences, behavior panics, rebind aborts,
// crash points), and checks every generated case against nine cross-tier
// invariant pairs: Simulate ≡ Execute ≡ Stream; Compile+Rebind ≡ fresh
// Instantiate; checkpoint/Resume ≡ uninterrupted; panic recovery ≡
// fault-free reference; durable snapshot encode ∘ decode ∘ restore ≡
// identity; shared-Skeleton stamping ≡ per-session compile; k-iteration
// epochs ≡ one-iteration epochs (also resumed from the cut that opens one,
// and cut short from another goroutine ≡ Execute at the reported count);
// one execution context ≡ one per actor ≡ Execute (also across rebinds,
// cuts, a cut resumed under the other clustering, and panic recovery); a
// warm engine revisiting valuations through its scenario table ≡ a chain
// of cold engines, one per boundary, each resumed from the last one's
// final cut (also under rebind aborts on a first visit and a revisit, a
// mid-trajectory resume, and more valuations than the table holds). A
// separate battery pushes generated graphs through the tpdf-serve HTTP surface
// (admission, pump cadence, SIGKILL-shaped crash, recovery on a second
// server over the same data directory) against an uninterrupted
// reference. The static code GenerateCode emits is built and run too
// (TestGeneratedCodeRunsLikeExecute): for every builtin and generated
// graphs 1–24 its RunIteration fires each node as often as Execute does,
// and a behavior producing more payloads than its rate fails the firing in
// both.
//
// Determinism and seeding rules: every generated artifact is derived from
// a single int64 seed through one rand source — no map iteration, no time,
// no global state — so the same seed yields byte-identical graph text,
// schedule text and fault plan on every run and platform (asserted by
// test). The sweep covers a fixed seed range; a failing seed is the whole
// reproduction recipe.
//
//	go test ./tpdf/fuzz/                      # sweep + corpus replay (-short: smaller sweep)
//	go test -race -count=1 ./tpdf/fuzz/       # what the CI fuzz job runs
//	go test -fuzz=FuzzParse ./internal/graphio/   # coverage-guided parser fuzzing
//	go test -fuzz=FuzzDecode ./internal/durable/  # coverage-guided decoder fuzzing
//
// On failure the harness shrinks the case (greedy reductions that must
// keep the same invariant failing: fewer iterations, dropped faults and
// rebinds, smaller topology) and writes the shrunk counterexample to
// testdata/corpus as a plain-text pair — <name>.tpdf (the graph, in the
// canonical format) and <name>.schedule (the schedule's text form). Commit
// both files with the fix; TestCorpusReplay replays every committed pair
// through the full invariant battery in the normal test job forever after.
// Corpus entries for the native fuzz targets live under each package's
// testdata/fuzz/<FuzzName>/ in the standard go-fuzz corpus encoding and
// are committed the same way. The CI fuzz job's -timeout bounds the
// sweep's cost.
//
// Everything under internal/ is an implementation detail behind this
// facade: core (the TPDF model of computation), csdf (the cyclo-static base
// model), analysis, sched + platform, sim, runner, engine (the streaming
// executor), durable (the snapshot codec, store and writer),
// pool, apps, buffer, experiments, trace, graphio and gen (the seeded
// graph/schedule generator behind tpdf/fuzz).
//
// The benchmarks in bench_test.go regenerate each paper artifact; the
// tpdf-analyze, tpdf-sched, tpdf-sim, tpdf-bench, tpdf-serve and
// tpdf-loadgen commands expose the same functionality on the command line.
// tpdf.ExperimentNames is the experiment index (tpdf-bench -h prints it),
// and each rendering states the paper's value next to the reproduced one.
package repro
