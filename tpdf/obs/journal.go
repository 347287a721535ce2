package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/trace"
)

// EventKind classifies a journal entry.
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
	// persist latency (encode + write + fsync + rename); Detail carries the
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

// Event is one fixed-size journal entry. Recording one never allocates:
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

// Journal is a bounded ring buffer of trace events: the newest Cap events
// are kept, older ones are overwritten, and recording is O(1) with no
// allocation — safe to leave enabled on a production session forever.
type Journal struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
	nowfn func() int64
}

// DefaultJournalCap bounds a journal built with capacity <= 0.
const DefaultJournalCap = 1024

// NewJournal returns a journal keeping the newest capacity events
// (DefaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Record appends events in order under one lock, overwriting the oldest
// when full. A zero TimeUnixNano is stamped with the current wall clock.
func (j *Journal) Record(evs ...Event) {
	j.mu.Lock()
	for _, e := range evs {
		if e.TimeUnixNano == 0 {
			if j.nowfn != nil {
				e.TimeUnixNano = j.nowfn()
			} else {
				e.TimeUnixNano = time.Now().UnixNano()
			}
		}
		j.buf[j.next] = e
		if j.next++; j.next == len(j.buf) {
			j.next = 0
		}
		j.total++
	}
	j.mu.Unlock()
}

// Len returns how many events are currently retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lenLocked()
}

func (j *Journal) lenLocked() int {
	if j.total < int64(len(j.buf)) {
		return int(j.total)
	}
	return len(j.buf)
}

// Dropped returns how many events were overwritten because the bound was
// reached.
func (j *Journal) Dropped() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if d := j.total - int64(len(j.buf)); d > 0 {
		return d
	}
	return 0
}

// Events returns the retained events oldest-first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.lenLocked()
	out := make([]Event, 0, n)
	start := j.next - n
	if start < 0 {
		start += len(j.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, j.buf[(start+i)%len(j.buf)])
	}
	return out
}

// Reset forgets all retained events.
func (j *Journal) Reset() {
	j.mu.Lock()
	j.next, j.total = 0, 0
	for i := range j.buf {
		j.buf[i] = Event{}
	}
	j.mu.Unlock()
}

// WriteChromeTrace renders the journal as Chrome trace_event JSON (the
// array form), loadable in chrome://tracing or Perfetto: events with a
// duration become complete ("X") slices, instants become instant ("i")
// marks. Timestamps are microseconds relative to the earliest retained
// event.
func (j *Journal) WriteChromeTrace(w io.Writer) error {
	evs := j.Events()
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
		var line string
		if e.DurNs > 0 {
			line = fmt.Sprintf(`  {"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"completed":%d,"params_digest":"%016x","detail":%q}}%s`,
				e.Kind.String(), startUs, float64(e.DurNs)/1e3, e.Completed, e.ParamsDigest, e.Detail, sep)
		} else {
			line = fmt.Sprintf(`  {"name":%q,"ph":"i","s":"t","ts":%.3f,"pid":1,"tid":1,"args":{"completed":%d,"params_digest":"%016x","detail":%q}}%s`,
				e.Kind.String(), startUs, e.Completed, e.ParamsDigest, e.Detail, sep)
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Summary renders the retained events as an aligned table (the
// internal/trace renderer the rest of the tooling uses), oldest first.
func (j *Journal) Summary() string {
	evs := j.Events()
	rows := make([][]string, len(evs))
	var t0 int64
	if len(evs) > 0 {
		t0 = evs[0].TimeUnixNano
	}
	for i, e := range evs {
		digest := ""
		if e.ParamsDigest != 0 {
			digest = fmt.Sprintf("%016x", e.ParamsDigest)
		}
		rows[i] = []string{
			strconv.FormatFloat(float64(e.TimeUnixNano-t0)/1e6, 'f', 3, 64),
			e.Kind.String(),
			strconv.FormatInt(e.Completed, 10),
			strconv.FormatFloat(float64(e.DurNs)/1e6, 'f', 3, 64),
			digest,
			e.Detail,
		}
	}
	return trace.Table([]string{"t_ms", "event", "completed", "dur_ms", "params", "detail"}, rows)
}
