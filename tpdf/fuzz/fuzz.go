// Package fuzz is the property-based testing surface of the TPDF
// reproduction: a differential harness that runs seeded (graph, schedule)
// cases from internal/gen through every execution tier and asserts the
// nine cross-tier invariant pairs listed in doc.go §Testing at the
// repository root, which also says how to run the sweep and grow the
// corpus.
//
// The harness is test code: Case, Check and its nine pairs, Shrink and the
// corpus reader and writer live in this package's _test.go files. The
// package exports only the Graph and GraphConfig re-exports below, which
// the benchmark module still imports; both go once it calls internal/gen
// directly.
package fuzz

import (
	"repro/internal/gen"
	"repro/tpdf"
)

// GraphConfig bounds graph generation; see internal/gen.
type GraphConfig = gen.GraphConfig

// Graph deterministically generates a valid TPDF graph for seed: it
// parses from its own Format text, is consistent, live and Theorem
// 2-bounded at every valuation in its declared parameter ranges.
func Graph(seed int64, cfg GraphConfig) *tpdf.Graph { return gen.Graph(seed, cfg) }
