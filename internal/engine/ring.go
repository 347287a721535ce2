package engine

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinYields is how many scheduler yields a ring op tries before the full
// flag-raise/park protocol. A yield lets the peer actor run and publish —
// on a loaded single-core box that usually satisfies the wait without any
// channel traffic, and on a multi-core box the peer is typically mid-batch
// and done by the second check.
const spinYields = 2

// ring is the engine's single-producer/single-consumer token transport: a
// fixed-capacity circular buffer of payload slots with batched, futex-style
// blocking. Each edge of the graph has exactly one producing and one
// consuming actor, so no slot is ever contended — the producer owns tail,
// the consumer owns head, and the only synchronization on the hot path is
// one atomic publish per *batch* (a whole firing's tokens), not one channel
// operation per token as with chan any.
//
// Blocking follows the classic two-phase protocol: the waiter raises its
// flag, re-checks the cursors (the peer orders its cursor publish before
// the flag check, so the Dekker pair can't both miss), and only then parks
// on its wake channel. A stale wakeup token left in the channel costs one
// spin around the loop, never a lost wakeup.
//
// A solo ring — producer and consumer in the same context — has no peer
// that could ever publish or release while one side waits, so its slow
// path refuses instead of parking: it raises the waiting side's flag (so
// the engine's diagnosis names it) and returns false. Under the derived
// capacities the fast path always succeeds on a solo ring.
//
// Cursors are absolute token counts (monotonically increasing); occupancy
// is tail-head and slot indices are cursor mod len(buf). The plain `head`
// and `tail` fields are cached copies owned by their side; the atomic
// mirrors are the published values the other side reads.
type ring struct {
	buf []any

	// Consumer side: head is consumer-owned; atomicHead is its published
	// mirror, read by the producer to compute free space.
	head       int64
	atomicHead atomic.Int64
	// Producer side, symmetric.
	tail       int64
	atomicTail atomic.Int64

	// cwait/pwait are the raised-hand flags of the blocking protocol;
	// csig/pwake the capacity-1 wake channels they park on.
	cwait atomic.Bool
	pwait atomic.Bool
	csig  chan struct{}
	psig  chan struct{}

	// pst/cst, when non-nil, collect producer-/consumer-side metrics
	// (parks, spins, wakes, blocked time, occupancy high-water). Each is
	// written only by its owning side with plain stores and read only at
	// barriers; nil when metrics are disabled or the ring is solo (it never
	// waits, and soloPeaks keeps its high-water mark), keeping the fast
	// paths untouched.
	pst *sideStats
	cst *sideStats

	// solo is set at wiring when one context holds both ends.
	solo bool
}

func newRing(capacity int64) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{
		buf:  make([]any, capacity),
		csig: make(chan struct{}, 1),
		psig: make(chan struct{}, 1),
	}
}

// cap returns the ring's token capacity.
func (r *ring) cap() int64 { return int64(len(r.buf)) }

// len returns the current occupancy. Only safe when no actor is running
// (the engine calls it at barriers) or from the consumer side.
func (r *ring) len() int64 { return r.atomicTail.Load() - r.atomicHead.Load() }

// waitRead blocks until at least n tokens are published or stop closes
// (returning false; a solo ring returns false instead of blocking).
// Consumer side only. The fast path is one atomic load and a compare; the
// slow path classifies metrics-enabled waits as spin or park with plain
// counter bumps and reads the clock only around sampled channel parks (one
// in parkSampleMask+1) — spin-resolved waits happen per firing under load
// and parks in a pipelining chain are frequent and individually cheap, so a
// time.Now pair around each would be the dominant cost of the
// instrumentation.
func (r *ring) waitRead(n int64, stop <-chan struct{}) bool {
	if r.atomicTail.Load()-r.head >= n {
		return true
	}
	return r.waitReadSlow(n, stop, r.cst)
}

func (r *ring) waitReadSlow(n int64, stop <-chan struct{}, st *sideStats) bool {
	if r.solo {
		r.cwait.Store(true)
		return false
	}
	for s := 0; s < spinYields; s++ {
		runtime.Gosched()
		if r.atomicTail.Load()-r.head >= n {
			if st != nil {
				st.spins++
			}
			return true
		}
	}
	for r.atomicTail.Load()-r.head < n {
		r.cwait.Store(true)
		if r.atomicTail.Load()-r.head >= n {
			r.cwait.Store(false)
			if st != nil {
				st.spins++
			}
			return true
		}
		if st != nil && st.parks&parkSampleMask == 0 {
			st.parks++
			st.timedParks++
			t0 := time.Now()
			select {
			case <-r.csig:
				st.blockedNs += int64(time.Since(t0))
			case <-stop:
				st.blockedNs += int64(time.Since(t0))
				return false
			}
		} else {
			if st != nil {
				st.parks++
			}
			select {
			case <-r.csig:
			case <-stop:
				return false
			}
		}
	}
	return true
}

// waitWrite blocks until at least n slots are free or stop closes
// (returning false). Producer side only; instrumentation follows waitRead.
func (r *ring) waitWrite(n int64, stop <-chan struct{}) bool {
	if r.cap()-(r.tail-r.atomicHead.Load()) >= n {
		return true
	}
	return r.waitWriteSlow(n, stop, r.pst)
}

func (r *ring) waitWriteSlow(n int64, stop <-chan struct{}, st *sideStats) bool {
	if r.solo {
		r.pwait.Store(true)
		return false
	}
	for s := 0; s < spinYields; s++ {
		runtime.Gosched()
		if r.cap()-(r.tail-r.atomicHead.Load()) >= n {
			if st != nil {
				st.spins++
			}
			return true
		}
	}
	for r.cap()-(r.tail-r.atomicHead.Load()) < n {
		r.pwait.Store(true)
		if r.cap()-(r.tail-r.atomicHead.Load()) >= n {
			r.pwait.Store(false)
			if st != nil {
				st.spins++
			}
			return true
		}
		if st != nil && st.parks&parkSampleMask == 0 {
			st.parks++
			st.timedParks++
			t0 := time.Now()
			select {
			case <-r.psig:
				st.blockedNs += int64(time.Since(t0))
			case <-stop:
				st.blockedNs += int64(time.Since(t0))
				return false
			}
		} else {
			if st != nil {
				st.parks++
			}
			select {
			case <-r.psig:
			case <-stop:
				return false
			}
		}
	}
	return true
}

// publish advances the producer cursor by n (after the slots were filled)
// and wakes a waiting consumer. The atomic store orders the slot writes
// before the consumer's reads. The wait flag is loaded before it is
// swapped: the load after the cursor store is the publisher's half of the
// Dekker pair, and with nobody waiting — always, when both ends of the edge
// live in one context — the batch costs no locked instruction. With metrics
// enabled on a ring that crosses contexts the producer also tracks the
// occupancy high-water mark (one extra atomic load per batch).
func (r *ring) publish(n int64) {
	r.tail += n
	r.atomicTail.Store(r.tail)
	if st := r.pst; st != nil {
		if occ := r.tail - r.atomicHead.Load(); occ > st.highWater {
			st.highWater = occ
		}
	}
	if r.cwait.Load() && r.cwait.CompareAndSwap(true, false) {
		if st := r.pst; st != nil {
			st.wakes++
		}
		select {
		case r.csig <- struct{}{}:
		default:
		}
	}
}

// release advances the consumer cursor by n (after the slots were copied
// out) and wakes a waiting producer.
func (r *ring) release(n int64) {
	r.head += n
	r.atomicHead.Store(r.head)
	if r.pwait.Load() && r.pwait.CompareAndSwap(true, false) {
		if st := r.cst; st != nil {
			st.wakes++
		}
		select {
		case r.psig <- struct{}{}:
		default:
		}
	}
}

// read blocks for n tokens, copies them into dst[:n] in FIFO order, nils
// the vacated slots (payloads must not be retained by the ring) and
// releases them. Returns false when stop closed first.
func (r *ring) read(dst []any, n int64, stop <-chan struct{}) bool {
	if n == 0 {
		return true
	}
	if !r.waitRead(n, stop) {
		return false
	}
	size := int64(len(r.buf))
	i := r.head % size
	for j := int64(0); j < n; j++ {
		dst[j] = r.buf[i]
		r.buf[i] = nil
		if i++; i == size {
			i = 0
		}
	}
	r.release(n)
	return true
}

// discard blocks for n tokens and drops them (the behavior-less node path:
// payloads are consumed but not observed).
func (r *ring) discard(n int64, stop <-chan struct{}) bool {
	if n == 0 {
		return true
	}
	if !r.waitRead(n, stop) {
		return false
	}
	size := int64(len(r.buf))
	i := r.head % size
	for j := int64(0); j < n; j++ {
		r.buf[i] = nil
		if i++; i == size {
			i = 0
		}
	}
	r.release(n)
	return true
}

// write blocks for space and publishes the batch vals as one unit: the
// consumer observes either none or all of a firing's tokens on this edge.
func (r *ring) write(vals []any, stop <-chan struct{}) bool {
	n := int64(len(vals))
	if n == 0 {
		return true
	}
	if !r.waitWrite(n, stop) {
		return false
	}
	size := int64(len(r.buf))
	i := r.tail % size
	for j := int64(0); j < n; j++ {
		r.buf[i] = vals[j]
		if i++; i == size {
			i = 0
		}
	}
	r.publish(n)
	return true
}

// writeNil blocks for space and publishes n nil payloads (the token-only
// path: nodes without a behavior emit placeholder payloads at the port
// rates, exactly like the sequential runner).
func (r *ring) writeNil(n int64, stop <-chan struct{}) bool {
	if n == 0 {
		return true
	}
	if !r.waitWrite(n, stop) {
		return false
	}
	size := int64(len(r.buf))
	i := r.tail % size
	for j := int64(0); j < n; j++ {
		r.buf[i] = nil
		if i++; i == size {
			i = 0
		}
	}
	r.publish(n)
	return true
}

// drain empties the ring into a fresh slice in FIFO order. Only called at
// barriers (no actor running); nil when the ring is empty.
func (r *ring) drain() []any {
	n := r.len()
	if n == 0 {
		return nil
	}
	out := make([]any, n)
	size := int64(len(r.buf))
	i := r.head % size
	for j := int64(0); j < n; j++ {
		out[j] = r.buf[i]
		r.buf[i] = nil
		if i++; i == size {
			i = 0
		}
	}
	r.head += n
	r.atomicHead.Store(r.head)
	return out
}

// peek copies the ring's oldest len(dst) tokens into dst in FIFO order
// without advancing the consumer cursor. Only called at barriers (no actor
// running) — this is the checkpoint capture path, which must observe the
// ring without disturbing it.
func (r *ring) peek(dst []any) {
	n := int64(len(dst))
	size := int64(len(r.buf))
	i := r.head % size
	for j := int64(0); j < n; j++ {
		dst[j] = r.buf[i]
		if i++; i == size {
			i = 0
		}
	}
}

// restore rewrites the ring's content to exactly vals (FIFO order) and
// resets the blocking protocol: wait flags lowered, stale wake tokens
// drained. Only called at barriers or before the actors start — both
// sides' cached cursors are rewritten, and the dispatch that (re)starts the
// actors orders these writes before their reads.
func (r *ring) restore(vals []any) {
	if int64(len(vals)) > r.cap() {
		r.buf = make([]any, len(vals))
	}
	for i := range r.buf {
		r.buf[i] = nil
	}
	copy(r.buf, vals)
	r.head, r.tail = 0, int64(len(vals))
	r.atomicHead.Store(r.head)
	r.atomicTail.Store(r.tail)
	// An actor cancelled inside a ring wait may have left its flag raised
	// or a wake token pending; either would corrupt the next epoch's
	// blocking protocol.
	r.cwait.Store(false)
	r.pwait.Store(false)
	select {
	case <-r.csig:
	default:
	}
	select {
	case <-r.psig:
	default:
	}
}

// grow resizes the ring to at least capacity tokens, preserving contents in
// FIFO order. Only called at barriers: both sides' cached cursors are
// rewritten, and the dispatch that restarts the actors orders these writes
// before their reads. Shrinking never happens — a larger capacity is always
// admissible, and keeping the high-water allocation avoids churn.
func (r *ring) grow(capacity int64) {
	if capacity <= r.cap() {
		return
	}
	live := r.drain()
	r.buf = make([]any, capacity)
	r.head, r.tail = 0, int64(len(live))
	r.atomicHead.Store(r.head)
	r.atomicTail.Store(r.tail)
	copy(r.buf, live)
}
