package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventKind classifies a trace record.
type EventKind uint8

const (
	// EvRunStart / EvRunEnd bracket one engine run.
	EvRunStart EventKind = iota + 1
	EvRunEnd
	// EvBarrier is one transaction boundary: recorded at exit, DurNs spans
	// enter to exit and therefore includes hook time (a parked session's
	// wait for its next command is boundary time by design).
	EvBarrier
	// EvRebind is a boundary that changed parameters: DurNs is the rebind
	// cost (rate tables + schedule + ring growth), ParamsDigest the digest
	// of the new valuation.
	EvRebind
	// EvDrain is a clean stop verdict at a boundary (Barrier hook returned
	// stop).
	EvDrain
	// EvStallWarn is a watchdog near-miss: one idle window elapsed with no
	// progress; a second consecutive one fails the run (EvStall).
	EvStallWarn
	EvStall
	// EvAbort is a discarded transaction: an in-flight epoch torn down by a
	// behavior panic, or a rebind rejected by validation. Completed is the
	// barrier the aborted epoch opened at (panic) or the engine held at
	// (rebind), Detail names the panicking node or the validation failure.
	EvAbort
	// EvRestore is a run start resumed from the checkpoint named by
	// Completed — a restart after a panic, or cold-start recovery.
	EvRestore
	// EvPersist is a durable snapshot write: the checkpoint at Completed was
	// encoded and fsynced to the session's snapshot store. DurNs is the
	// persist latency (encode + append + fsync); Detail carries the
	// error text when the write failed.
	EvPersist
	// EvRecover is a cold-start recovery: a session was re-opened from its
	// newest durable snapshot, resuming at the checkpoint named by
	// Completed.
	EvRecover
)

// String names the kind for summaries and trace exports.
func (k EventKind) String() string {
	switch k {
	case EvRunStart:
		return "run_start"
	case EvRunEnd:
		return "run_end"
	case EvBarrier:
		return "barrier"
	case EvRebind:
		return "rebind"
	case EvDrain:
		return "drain"
	case EvStallWarn:
		return "stall_warn"
	case EvStall:
		return "stall"
	case EvAbort:
		return "abort"
	case EvRestore:
		return "restore"
	case EvPersist:
		return "persist"
	case EvRecover:
		return "recover"
	default:
		return "unknown"
	}
}

// Event is one fixed-size trace record. Recording one never allocates:
// Detail must be a static or pre-built string (hot-path recorders pass
// static notes; the watchdog's slow path may format).
type Event struct {
	// TimeUnixNano is the event end time; Record stamps it when zero.
	TimeUnixNano int64
	Kind         EventKind
	// Completed is the iteration count at the boundary.
	Completed int64
	// DurNs is the event duration (barrier span, rebind cost); 0 for
	// instants.
	DurNs int64
	// ParamsDigest identifies the active valuation (rebind events).
	ParamsDigest uint64
	// Detail is a short free-form note.
	Detail string
}

// WriteChromeTrace renders the retained records as Chrome trace_event JSON
// (the array form), loadable in chrome://tracing or Perfetto: events with a
// duration become complete ("X") slices, instants become instant ("i")
// marks. Timestamps are microseconds relative to the earliest retained
// event. Strings are JSON-encoded, so any Detail — a node name, a stall
// report, an error text — yields valid JSON (invalid UTF-8 becomes U+FFFD).
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	evs := r.Events()
	var t0 int64
	if len(evs) > 0 {
		t0 = evs[0].TimeUnixNano
		for _, e := range evs {
			if s := e.TimeUnixNano - e.DurNs; s < t0 {
				t0 = s
			}
		}
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		sep := ","
		if i == len(evs)-1 {
			sep = ""
		}
		startUs := float64(e.TimeUnixNano-e.DurNs-t0) / 1e3
		// Marshalling a string cannot fail.
		name, _ := json.Marshal(e.Kind.String())
		detail, _ := json.Marshal(e.Detail)
		var line string
		if e.DurNs > 0 {
			line = fmt.Sprintf(`  {"name":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"completed":%d,"params_digest":"%016x","detail":%s}}%s`,
				name, startUs, float64(e.DurNs)/1e3, e.Completed, e.ParamsDigest, detail, sep)
		} else {
			line = fmt.Sprintf(`  {"name":%s,"ph":"i","s":"t","ts":%.3f,"pid":1,"tid":1,"args":{"completed":%d,"params_digest":"%016x","detail":%s}}%s`,
				name, startUs, e.Completed, e.ParamsDigest, detail, sep)
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
