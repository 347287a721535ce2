package tpdf_test

import (
	"fmt"
	"log"
	"os"

	"repro/tpdf"
	"repro/tpdf/obs"
)

// Example builds a parametric two-stage pipeline with the fluent builder,
// proves it bounded with the consolidated analysis, and executes one
// iteration in the token-accurate simulator.
func Example() {
	g, err := tpdf.NewGraph("demo").
		Param("p", 3, 1, 16).
		Kernel("SRC", 1).
		Kernel("WORK", 2).
		Kernel("SNK", 1).
		Connect("SRC[p] -> WORK[1]").
		Connect("WORK[1] -> SNK[1]").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	rep := tpdf.Analyze(g)
	fmt.Printf("bounded: %v, q = %s\n", rep.Bounded, rep.RepetitionVector)

	res, err := tpdf.Simulate(g, tpdf.WithParam("p", 3))
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range g.Nodes {
		fmt.Printf("%s fired %d times\n", n.Name, res.Firings[i])
	}
	// Output:
	// bounded: true, q = [1, p, p]
	// SRC fired 1 times
	// WORK fired 3 times
	// SNK fired 3 times
}

// ExampleStream runs a payload pipeline on the concurrent engine: every
// stage executes in its own goroutine behind bounded channels, and the
// reconfiguration hook doubles the block size p at each transaction
// boundary — the pipeline quiesces first, so no firing ever sees a mix of
// old and new rates.
func ExampleStream() {
	g, err := tpdf.NewGraph("stream").
		Param("p", 2, 1, 8).
		Kernel("SRC", 1).
		Kernel("FWD", 1).
		Kernel("DATA", 1).
		Kernel("SIZE", 1).
		Connect("SRC[p] -> FWD[p]").
		Connect("FWD[p] -> DATA[p]").
		Connect("FWD[1] -> SIZE[1]").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	behaviors := map[string]tpdf.Behavior{
		"FWD": func(f *tpdf.Firing) error {
			f.Produce("o0", f.In["i0"]...)   // forward the whole block
			f.Produce("o1", len(f.In["i0"])) // and announce its size
			return nil
		},
	}
	// Behaviors of different nodes run concurrently, so each sink counts
	// into a slot of its own, captured by its own closure: per-node state
	// needs no lock. One map written by both sinks would be a data race
	// even with distinct keys. The slots are read after Stream returns.
	sinks := []string{"DATA", "SIZE"}
	delivered := make([]int, len(sinks))
	for i, name := range sinks {
		slot := &delivered[i]
		behaviors[name] = func(f *tpdf.Firing) error {
			*slot += len(f.In["i0"])
			return nil
		}
	}
	res, err := tpdf.Stream(g, behaviors,
		tpdf.WithIterations(3),
		tpdf.WithReconfigure(func(completed int64) map[string]int64 {
			return map[string]int64{"p": 2 << completed} // 2, 4, 8
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fired: SRC %d, FWD %d, DATA %d, SIZE %d\n",
		res.Firings["SRC"], res.Firings["FWD"], res.Firings["DATA"], res.Firings["SIZE"])
	for i, name := range sinks {
		fmt.Printf("tokens delivered to %s: %d\n", name, delivered[i])
	}
	// Output:
	// fired: SRC 3, FWD 3, DATA 3, SIZE 3
	// tokens delivered to DATA: 14
	// tokens delivered to SIZE: 3
}

// ExampleStream_metrics attaches the observability surface to a streaming
// run: a Registry receives per-actor and per-edge counters harvested at
// every transaction barrier (never on the firing path, which stays
// allocation-free), and a bounded Journal records barrier, rebind and
// drain events for export as a Chrome trace or a table. Both are safe to
// read concurrently while the run is live; here they are read after it.
func ExampleStream_metrics() {
	g, err := tpdf.NewGraph("observed").
		Param("p", 2, 1, 8).
		Kernel("SRC", 1).
		Kernel("SNK", 1).
		Connect("SRC[p] -> SNK[p]").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	reg := obs.NewRegistry()
	journal := obs.NewJournal(64)
	_, err = tpdf.Stream(g, nil,
		tpdf.WithIterations(4),
		tpdf.WithMetrics(reg),
		tpdf.WithTraceJournal(journal),
		tpdf.WithReconfigure(func(completed int64) map[string]int64 {
			return map[string]int64{"p": 2 + completed} // 2, 3, 4, 5
		}))
	if err != nil {
		log.Fatal(err)
	}

	snap := reg.EngineSnapshot()
	fmt.Printf("completed %d iterations, %d rebinds\n", snap.Completed, snap.Rebinds)
	for _, a := range snap.Actors {
		fmt.Printf("%s: %d firings, %d in, %d out\n",
			a.Name, a.Firings, a.TokensIn, a.TokensOut)
	}
	rebinds := 0
	for _, ev := range journal.Events() {
		if ev.Kind == obs.EvRebind {
			rebinds++
		}
	}
	fmt.Printf("journal: %d events, %d rebind records\n", journal.Len(), rebinds)
	// Output:
	// completed 4 iterations, 3 rebinds
	// SRC: 4 firings, 0 in, 14 out
	// SNK: 4 firings, 14 in, 0 out
	// journal: 9 events, 3 rebind records
}

// ExampleStream_reconfigure changes a parameter mid-stream: the hook runs
// at every transaction boundary once the pipeline is quiescent, and the
// engine rebinds the compiled graph in place — rate tables, repetition
// vector and ring capacities — so the sink observes the old block size up
// to the boundary and the new one after it, never a mixture. The hook
// fires between iterations 2 and 3, switching p from 2 to 5.
func ExampleStream_reconfigure() {
	g, err := tpdf.NewGraph("midstream").
		Param("p", 2, 1, 8).
		Kernel("SRC", 1).
		Kernel("SNK", 1).
		Connect("SRC[p] -> SNK[p]").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	behaviors := map[string]tpdf.Behavior{
		"SNK": func(f *tpdf.Firing) error {
			fmt.Printf("iteration %d consumed a block of %d\n", f.K+1, len(f.In["i0"]))
			return nil
		},
	}
	_, err = tpdf.Stream(g, behaviors,
		tpdf.WithIterations(4),
		tpdf.WithReconfigure(func(completed int64) map[string]int64 {
			if completed == 2 {
				return map[string]int64{"p": 5}
			}
			return nil // keep the current environment
		}))
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// iteration 1 consumed a block of 2
	// iteration 2 consumed a block of 2
	// iteration 3 consumed a block of 5
	// iteration 4 consumed a block of 5
}

// ExampleStream_checkpoint splits one logical run across two engines: the
// first leg keeps the checkpoint captured at its final quiescent barrier
// (ring contents, firing counters, parameter valuation — a consistent cut
// of the dataflow), and a fresh engine resumes from it. WithIterations is
// the total target, so the resumed leg performs only the remaining
// iterations, and the combined output is identical to an uninterrupted
// six-iteration run.
func ExampleStream_checkpoint() {
	g, err := tpdf.NewGraph("resumable").
		Param("p", 2, 1, 8).
		Kernel("SRC", 1).
		Kernel("SNK", 1).
		Connect("SRC[p] -> SNK[p]").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	behaviors := map[string]tpdf.Behavior{
		"SNK": func(f *tpdf.Firing) error {
			total += len(f.In["i0"])
			return nil
		},
	}

	var saved *tpdf.Checkpoint
	res, err := tpdf.Stream(g, behaviors,
		tpdf.WithIterations(3),
		// The sink runs at every barrier; the arena behind ck is reused,
		// so keep a Clone (or CopyInto a held arena) to outlive the call.
		tpdf.WithCheckpoints(func(ck *tpdf.Checkpoint) { saved = ck.Clone() }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first leg: SNK fired %d times, %d tokens, checkpoint at iteration %d\n",
		res.Firings["SNK"], total, saved.Completed)

	res, err = tpdf.Stream(g, behaviors,
		tpdf.WithIterations(6), // total target, not "6 more"
		tpdf.WithResume(saved))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed leg: SNK fired %d times in total, %d tokens overall\n",
		res.Firings["SNK"], total)
	// Output:
	// first leg: SNK fired 3 times, 6 tokens, checkpoint at iteration 3
	// resumed leg: SNK fired 6 times in total, 12 tokens overall
}

// ExampleStream_durable survives a process crash: the first leg streams
// its barrier checkpoints to an on-disk snapshot store (copied
// into a double buffer at the barrier and fsynced by a background writer),
// then "dies". A fresh process — sharing nothing but the data directory —
// loads the newest valid snapshot, re-parses the recorded graph text, and
// resumes; the combined output is identical to an uninterrupted run. The
// token count travels in the checkpoint via WithUserState, so it is exact
// across the crash too.
func ExampleStream_durable() {
	dir, err := os.MkdirTemp("", "tpdf-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	build := func() (*tpdf.Graph, error) {
		return tpdf.NewGraph("durable").
			Param("p", 2, 1, 8).
			Kernel("SRC", 1).
			Kernel("SNK", 1).
			Connect("SRC[p] -> SNK[p]").
			Build()
	}
	g, err := build()
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	behaviors := map[string]tpdf.Behavior{
		"SNK": func(f *tpdf.Firing) error {
			total += len(f.In["i0"])
			return nil
		},
	}
	state := tpdf.WithUserState(
		func() any { return total },
		func(u any) { total = u.(int) })

	// First leg: run three iterations with durable persistence armed, then
	// crash (here: just stop — Close flushes the newest checkpoint, as a
	// real crash would rely on the per-pump flush).
	store, err := tpdf.OpenSnapshotStore(dir, 3)
	if err != nil {
		log.Fatal(err)
	}
	p, err := store.Persister("job-1", g, tpdf.PersistOptions{Tenant: "acme"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tpdf.Stream(g, behaviors, tpdf.WithIterations(3),
		tpdf.WithDurableCheckpoints(p), state); err != nil {
		log.Fatal(err)
	}
	if err := p.Close(); err != nil {
		log.Fatal(err)
	}

	// --- process boundary: a new process knows only the data directory ---
	store2, err := tpdf.OpenSnapshotStore(dir, 3)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := store2.Load("job-1")
	if err != nil {
		log.Fatal(err)
	}
	g2, err := snap.Graph()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %s/%s at iteration %d\n", snap.Tenant, snap.ID, snap.Checkpoint.Completed)

	res, err := tpdf.Stream(g2, behaviors,
		tpdf.WithIterations(6), // total target, not "6 more"
		tpdf.WithResume(snap.Checkpoint), state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed leg: SNK fired %d times in total, %d tokens overall\n",
		res.Firings["SNK"], total)
	// Output:
	// recovered acme/job-1 at iteration 3
	// resumed leg: SNK fired 6 times in total, 12 tokens overall
}

// ExampleStream_panicRecovery lets Stream supervise its own run: a
// behavior panic is caught at the epoch barrier and turned into a
// transaction abort that ends the engine, and Stream starts it again from
// the checkpoint of the previous quiescent barrier — rings, counters and
// parameters exactly as they were there — the same restart a crashed
// process performs with WithResume. Behavior state living outside the
// engine must travel with the checkpoint, so the token count is registered
// with WithUserState: it is snapshotted at every capture and restored on
// restart, keeping it exact even though the poisoned iteration executes
// twice.
func ExampleStream_panicRecovery() {
	g, err := tpdf.NewGraph("recoverable").
		Param("p", 2, 1, 8).
		Kernel("SRC", 1).
		Kernel("SNK", 1).
		Connect("SRC[p] -> SNK[p]").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	poisoned := true
	behaviors := map[string]tpdf.Behavior{
		"SNK": func(f *tpdf.Firing) error {
			if poisoned && f.K == 2 {
				poisoned = false // transient fault: the retry succeeds
				panic("corrupt block")
			}
			total += len(f.In["i0"])
			return nil
		},
	}

	res, err := tpdf.Stream(g, behaviors,
		tpdf.WithIterations(4),
		// A boundary hook makes every iteration its own transaction, so
		// the restart repeats only the poisoned iteration.
		tpdf.WithReconfigure(func(int64) map[string]int64 { return nil }),
		tpdf.WithPanicRecovery(1),
		tpdf.WithUserState(
			func() any { return total },
			func(u any) { total = u.(int) }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SNK fired %d times, %d tokens — the aborted epoch left no trace\n",
		res.Firings["SNK"], total)
	// Output:
	// SNK fired 4 times, 8 tokens — the aborted epoch left no trace
}
