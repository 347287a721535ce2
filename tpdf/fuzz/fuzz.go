// Package fuzz is the property-based testing surface of the TPDF
// reproduction: seeded generation of valid graphs and execution
// schedules, and a differential harness that runs each generated case
// through every execution tier and asserts the engine's cross-tier
// invariants.
//
// A Case pairs one generated graph with one generated schedule
// (iterations, base valuation, rebinds, pump cadence, fault sites, crash
// point). Check runs the case through nine invariant pairs:
//
//  1. Simulate ≡ Execute ≡ Stream (firings, final tokens, sink output)
//  2. Compile+Rebind ≡ fresh Instantiate (rate tables, repetition vector)
//  3. checkpoint/Resume ≡ uninterrupted
//  4. panic-recovery ≡ fault-free reference
//  5. durable snapshot encode ∘ decode ∘ restore ≡ identity
//  6. shared-Skeleton stamping ≡ per-session compile
//  7. k-iteration epochs ≡ one-iteration epochs (also resumed from a cut
//     inside one, and cut short from another goroutine ≡ Execute)
//  8. one execution context (Stream's default) ≡ one per actor
//     (WithWorkers) ≡ Execute (also across rebinds, k-iteration epochs, a
//     cut from another goroutine, a cut taken under one clustering and
//     resumed under the other, and a panic recovered by restart)
//  9. a warm engine revisiting valuations through its scenario table ≡ a
//     chain of cold engines, one per boundary, each resumed from the last
//     one's final cut (also under rebind aborts, per-actor contexts, a
//     mid-trajectory resume, and more valuations than the table holds)
//
// Everything is deterministic by seed: a failing seed reproduces its
// failure exactly, Shrink bisects it to a smaller case that still fails,
// and the shrunk case lands in testdata/corpus as a pair of plain-text
// files (graph + schedule) replayed by the normal test job forever after.
//
// See doc.go §Testing at the repository root for how to run the sweep,
// grow the corpus, and the seeding rules that keep all of this
// reproducible.
package fuzz

import (
	"fmt"

	"repro/internal/gen"
	"repro/tpdf"
)

// Re-exported generator configuration and schedule types; see
// internal/gen for field documentation.
type (
	// GraphConfig bounds graph generation.
	GraphConfig = gen.GraphConfig
	// ScheduleConfig bounds schedule generation.
	ScheduleConfig = gen.ScheduleConfig
	// Schedule is a generated execution plan: iterations, base valuation,
	// rebinds, pump cadence, fault sites and crash point.
	Schedule = gen.Schedule
	// Rebind is one scheduled reconfiguration within a Schedule.
	Rebind = gen.Rebind
	// FaultSite is one scheduled behavior panic within a Schedule.
	FaultSite = gen.FaultSite
)

// Graph deterministically generates a valid TPDF graph for seed: it
// parses from its own Format text, is consistent, live and Theorem
// 2-bounded at every valuation in its declared parameter ranges.
func Graph(seed int64, cfg GraphConfig) *tpdf.Graph { return gen.Graph(seed, cfg) }

// ParseSchedule parses a schedule's canonical text form (corpus files).
func ParseSchedule(src string) (*Schedule, error) { return gen.ParseSchedule(src) }

// SinkNodes lists the nodes the harness attaches recording behaviors to:
// the graph's sinks, or every node when a cycle leaves no sinks.
func SinkNodes(g *tpdf.Graph) []string { return gen.SinkNodes(g) }

// Case is one generated differential-test case: a graph and a schedule
// to drive it with.
type Case struct {
	// Seed generated the case (0 for cases loaded from corpus files).
	Seed     int64
	Graph    *tpdf.Graph
	Schedule *Schedule
	// fromSeed marks seed-generated cases: only those can shrink their
	// topology by rerunning the generator at a smaller node count.
	fromSeed bool
}

// NewCase generates the case for a seed: graph and schedule drawn with
// default configs from the same seed.
func NewCase(seed int64) *Case {
	g := gen.Graph(seed, GraphConfig{})
	return &Case{Seed: seed, Graph: g, Schedule: gen.NewSchedule(seed, g, ScheduleConfig{}), fromSeed: true}
}

// String identifies the case in failure output.
func (c *Case) String() string {
	return fmt.Sprintf("case seed=%d graph=%s iters=%d", c.Seed, c.Graph.Name, c.Schedule.Iterations)
}
