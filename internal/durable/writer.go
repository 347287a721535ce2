package durable

import (
	"sync"
	"time"

	"repro/internal/engine"
)

// PersistEvent reports one durable snapshot write (successful or not) to
// the writer's observer.
type PersistEvent struct {
	// Completed is the checkpoint's iteration count.
	Completed int64
	// Bytes is the encoded snapshot size (0 on error).
	Bytes int
	// Dur is the persist latency: encode + append + fsync.
	Dur time.Duration
	// Err is non-nil when the write failed.
	Err error
}

// Writer streams one session's checkpoints to its SessionStore without
// ever blocking the engine's barrier path. Offer copies the checkpoint
// into a double buffer (allocation-free once warm) and pokes a background
// goroutine; only the newest offered checkpoint is ever written — persists
// that fall behind simply skip intermediate cuts, which is safe because
// each snapshot is a complete state. Flush writes the pending checkpoint
// synchronously — the durability point a pump ack or drain waits on.
type Writer struct {
	ss    *SessionStore
	meta  Snapshot // SessionID/Tenant/GraphText template; Checkpoint filled per write
	every int
	onEv  func(PersistEvent)

	// mu guards the double buffer. Offer writes bufs[cur]; persist swaps
	// cur under mu, then encodes the now-private other buffer outside it.
	mu     sync.Mutex
	bufs   [2]ckBuf
	cur    int
	dirty  bool
	sinceP int

	// persistMu serializes persists and orders them: held across
	// swap+encode+write so a background persist of an older cut can never
	// land after (and thus shadow, in the log) a Flush of a newer one. It
	// also guards encBuf and lastErr.
	persistMu sync.Mutex
	encBuf    []byte
	lastErr   error

	wake      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
	loopDone  chan struct{}
}

// ckBuf is one side of the double buffer. ints backs a deep copy of an
// []int64 user state: snapshot hooks may reuse one buffer across captures
// (serve's does), so the reference CopyInto keeps would alias memory the
// engine overwrites at the next barrier while the background goroutine is
// still encoding it. boxed caches ints wrapped in an interface — re-boxing
// a slice allocates, so the warm path (stable length) reuses one box and
// just overwrites the backing array. Other mutable user-state types take
// the allocating deepCopyUser path in Offer.
type ckBuf struct {
	ck    engine.Checkpoint
	ints  []int64
	boxed any
}

// NewWriter returns a writer persisting session id's checkpoints to ss.
// every is the cadence (persist every Nth offered checkpoint; < 1 means
// every one); onEvent, when non-nil, observes every persist attempt.
func NewWriter(ss *SessionStore, sessionID, tenant, graphText string, every int, onEvent func(PersistEvent)) *Writer {
	if every < 1 {
		every = 1
	}
	w := &Writer{
		ss:       ss,
		meta:     Snapshot{SessionID: sessionID, Tenant: tenant, GraphText: graphText},
		every:    every,
		onEv:     onEvent,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go w.loop()
	return w
}

// Offer records ck as the newest persistable cut. Allocation-free once the
// double buffer is warm; never blocks on I/O. A background persist is
// triggered every Nth offer (the cadence), but every offer updates the
// buffer, so a later Flush always writes the newest cut.
func (w *Writer) Offer(ck *engine.Checkpoint) {
	w.mu.Lock()
	buf := &w.bufs[w.cur]
	ck.CopyInto(&buf.ck)
	// CopyInto keeps User by reference; detach every codec-supported
	// mutable type from memory the snapshot hook may rewrite at the next
	// barrier. []int64 (serve's type) gets the allocation-free warm path;
	// the rest deep-copy with an allocation.
	switch u := buf.ck.User.(type) {
	case nil, bool, int, int64, float64, string:
		// Immutable or held by value: safe to keep as is.
	case []int64:
		// Detach from the snapshot hook's reusable slice (see ckBuf).
		if buf.boxed == nil || len(buf.ints) != len(u) {
			if cap(buf.ints) < len(u) {
				buf.ints = make([]int64, len(u))
			}
			buf.ints = buf.ints[:len(u)]
			buf.boxed = buf.ints
		}
		copy(buf.ints, u)
		buf.ck.User = buf.boxed
	default:
		buf.ck.User = deepCopyUser(buf.ck.User)
	}
	w.dirty = true
	w.sinceP++
	trigger := w.sinceP >= w.every
	if trigger {
		w.sinceP = 0
	}
	w.mu.Unlock()
	if trigger {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// deepCopyUser clones the mutable codec-supported user-state types
// ([]byte, []any and anything nested in []any); scalars and strings are
// immutable and pass through. Unsupported types also pass through —
// Encode rejects them loudly at persist time, so aliasing them is moot.
func deepCopyUser(v any) any {
	switch x := v.(type) {
	case []byte:
		return append([]byte(nil), x...)
	case []int64:
		return append([]int64(nil), x...)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = deepCopyUser(e)
		}
		return out
	default:
		return v
	}
}

func (w *Writer) loop() {
	defer close(w.loopDone)
	for {
		select {
		case <-w.done:
			return
		case <-w.wake:
			w.persist()
		}
	}
}

// persist writes the pending checkpoint, if any. persistMu is held across
// the buffer swap and the disk write: see the field comment for why.
func (w *Writer) persist() error {
	w.persistMu.Lock()
	defer w.persistMu.Unlock()

	w.mu.Lock()
	if !w.dirty {
		w.mu.Unlock()
		return w.lastErr
	}
	w.dirty = false
	idx := w.cur
	w.cur ^= 1
	w.mu.Unlock()

	// bufs[idx] is now private to this persist: Offer writes the other side.
	ck := &w.bufs[idx].ck
	start := time.Now()
	snap := w.meta
	snap.Checkpoint = ck
	enc, err := Encode(w.encBuf[:0], &snap)
	var n int
	if err == nil {
		w.encBuf = enc
		n, err = w.ss.Write(enc)
	}
	w.lastErr = err
	if w.onEv != nil {
		w.onEv(PersistEvent{Completed: ck.Completed, Bytes: n, Dur: time.Since(start), Err: err})
	}
	return err
}

// Flush synchronously persists the newest offered checkpoint. When nothing
// is pending it returns the last persist error (nil after a success), so a
// caller acking durability still observes a failed background write.
func (w *Writer) Flush() error {
	return w.persist()
}

// Close flushes the pending checkpoint, stops the background goroutine and
// closes the session's log file. Safe to call more than once; later calls
// return the first close's error.
func (w *Writer) Close() error {
	w.closeOnce.Do(func() {
		w.closeErr = w.Flush()
		close(w.done)
		<-w.loopDone
		w.ss.Close() //nolint:errcheck // every append was fsynced; Flush reported the last
	})
	return w.closeErr
}
