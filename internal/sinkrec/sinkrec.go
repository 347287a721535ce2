// Package sinkrec is the differential tests' observable output: a
// recording behavior per sink node, each appending its per-firing
// consumed-token count to its own sequence. Behaviors of different nodes
// run concurrently on the streaming engine, so every sink owns a slot
// preallocated at construction and captured by its closure — a firing
// touches no shared map and needs no lock. The recorder as a whole is only
// read at quiescent barriers (Snapshot/Restore) and after the run (Seq).
package sinkrec

import (
	"sort"

	"repro/internal/runner"
)

// Recorder holds one sequence per sink, in sorted sink order.
type Recorder struct {
	sinks []string
	seq   [][]int64
}

// New builds a recorder with one slot per named sink.
func New(sinks []string) *Recorder {
	sorted := append([]string(nil), sinks...)
	sort.Strings(sorted)
	return &Recorder{sinks: sorted, seq: make([][]int64, len(sorted))}
}

// Behaviors returns the recording behavior of every sink.
func (r *Recorder) Behaviors() map[string]runner.Behavior {
	b := make(map[string]runner.Behavior, len(r.sinks))
	for i, name := range r.sinks {
		slot := &r.seq[i]
		b[name] = func(f *runner.Firing) error {
			n := int64(0)
			for _, vals := range f.In {
				n += int64(len(vals))
			}
			*slot = append(*slot, n)
			return nil
		}
	}
	return b
}

// Snapshot returns a self-contained copy for Checkpoint.User: a []any of
// []int64 in sorted sink order — the durable codec's value vocabulary, so
// recorded state survives encode/decode.
func (r *Recorder) Snapshot() any {
	out := make([]any, len(r.seq))
	for i, s := range r.seq {
		out[i] = append([]int64(nil), s...)
	}
	return out
}

// Restore rewinds the recorder to a snapshot — the rollback discarding
// whatever the aborted transaction appended.
func (r *Recorder) Restore(u any) {
	vals := u.([]any)
	for i := range r.seq {
		r.seq[i] = append(r.seq[i][:0:0], vals[i].([]int64)...)
	}
}

// Seq returns the recorded sequences keyed by sink name.
func (r *Recorder) Seq() map[string][]int64 {
	out := make(map[string][]int64, len(r.sinks))
	for i, name := range r.sinks {
		out[name] = r.seq[i]
	}
	return out
}
