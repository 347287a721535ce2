package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestRingFIFOAcrossWrap pushes batches through a small ring from a
// producer goroutine while a consumer drains mismatched batch sizes, so
// every wraparound alignment is exercised; the consumer must see the exact
// FIFO sequence.
func TestRingFIFOAcrossWrap(t *testing.T) {
	const total = 10_000
	r := newRing(7)
	stop := make(chan struct{})
	var got []any

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]any, 0, 5)
		next := 0
		for next < total {
			batch = batch[:0]
			for b := 0; b < 1+next%5 && next < total; b++ {
				batch = append(batch, next)
				next++
			}
			if !r.write(batch, stop) {
				t.Error("write aborted")
				return
			}
		}
	}()

	buf := make([]any, 7)
	for len(got) < total {
		n := int64(1 + len(got)%3)
		if int64(total-len(got)) < n {
			n = int64(total - len(got))
		}
		if !r.read(buf, n, stop) {
			t.Fatal("read aborted")
		}
		got = append(got, buf[:n]...)
	}
	wg.Wait()

	for i, v := range got {
		if v.(int) != i {
			t.Fatalf("position %d: got %v, want %d", i, v, i)
		}
	}
}

// TestRingStopUnblocks parks a consumer on an empty ring and a producer on
// a full one; closing stop must release both with a false return.
func TestRingStopUnblocks(t *testing.T) {
	stop := make(chan struct{})
	empty := newRing(4)
	full := newRing(2)
	if !full.writeNil(2, stop) {
		t.Fatal("seeding the full ring blocked")
	}

	res := make(chan bool, 2)
	go func() { res <- empty.read(make([]any, 1), 1, stop) }()
	go func() { res <- full.write([]any{nil}, stop) }()
	close(stop)
	if <-res || <-res {
		t.Fatal("a blocked ring op returned true after stop")
	}
}

// TestRingGrowPreservesContent fills a ring across its wrap point, grows
// it, and checks the drained content is the untouched FIFO prefix.
func TestRingGrowPreservesContent(t *testing.T) {
	stop := make(chan struct{})
	r := newRing(4)
	if !r.write([]any{0, 1, 2}, stop) {
		t.Fatal("write blocked")
	}
	if !r.discard(2, stop) { // head now mid-buffer
		t.Fatal("discard blocked")
	}
	if !r.write([]any{3, 4, 5}, stop) { // wraps
		t.Fatal("write blocked")
	}
	r.grow(16)
	if r.cap() != 16 {
		t.Fatalf("cap after grow: %d, want 16", r.cap())
	}
	if got, want := r.drain(), []any{2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("content after grow: %v, want %v", got, want)
	}
	// Growing never shrinks.
	r.grow(2)
	if r.cap() != 16 {
		t.Fatalf("grow(2) shrank the ring to %d", r.cap())
	}
}

// TestRingWriteNilAndDiscard checks the token-only paths used by
// behavior-less nodes.
func TestRingWriteNilAndDiscard(t *testing.T) {
	stop := make(chan struct{})
	r := newRing(8)
	if !r.writeNil(5, stop) {
		t.Fatal("writeNil blocked")
	}
	if r.len() != 5 {
		t.Fatalf("len after writeNil(5): %d", r.len())
	}
	if !r.discard(3, stop) {
		t.Fatal("discard blocked")
	}
	if r.len() != 2 {
		t.Fatalf("len after discard(3): %d", r.len())
	}
	if got := r.drain(); len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("drain: %v, want two nils", got)
	}
}

// TestRingHammer is the ring's multi-processor battery (run it under -race
// at -cpu 1,2,4): over 10^5 mixed-size batches cross the smallest ring
// that cannot deadlock on them, so both sides spend the run in the spin /
// raise-flag / park / wake protocol, and an order-sensitive checksum on the far side
// must match the producer's. The transfer is cut into epochs the way the
// engine cuts a run into transactions: between epochs no actor is running,
// and there the test peeks the residue, and by turns restores it, grows the
// ring, or cancels a parked consumer and a parked producer through the stop
// channel — after which the next epoch must carry on as if nothing
// happened. It runs bare and with the per-side metrics blocks attached
// (the sampled-park branch). No timing is asserted anywhere.
func TestRingHammer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats bool
	}{{"bare", false}, {"metrics", true}} {
		t.Run(tc.name, func(t *testing.T) { hammerRing(t, tc.stats) })
	}
}

func hammerRing(t *testing.T, stats bool) {
	const (
		epochs          = 1600
		batchesPerEpoch = 64 // 102,400 batches overall
		maxWrite        = 5
		maxRead         = 4
		// Unaligned batches need maxWrite+maxRead-1 slots or both sides can
		// wait at once (the engine's analysis bounds guarantee as much).
		minCap = maxWrite + maxRead - 1
		maxCap = minCap + 4
	)
	r := newRing(minCap)
	if stats {
		r.pst, r.cst = &sideStats{}, &sideStats{}
	}
	rng := rand.New(rand.NewSource(1))
	// Payloads are their own absolute stream positions.
	var produced, consumed int64
	var wantSum, gotSum uint64
	sizes := make([]int64, batchesPerEpoch)

	for epoch := 0; epoch < epochs; epoch++ {
		var batchTokens int64
		for i := range sizes {
			sizes[i] = 1 + rng.Int63n(maxWrite)
			batchTokens += sizes[i]
		}
		// The consumer leaves a random residue within capacity, so the
		// quiescent points see every occupancy from empty to full.
		target := produced - consumed + batchTokens - rng.Int63n(r.cap()+1)
		consumerSeed := rng.Int63()

		stop := make(chan struct{})
		var abort sync.Once
		fail := func(format string, args ...any) {
			t.Errorf(format, args...)
			abort.Do(func() { close(stop) }) // release the peer
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			batch := make([]any, 0, maxWrite)
			pos := produced
			for _, n := range sizes {
				batch = batch[:0]
				for ; n > 0; n-- {
					batch = append(batch, pos)
					wantSum = wantSum*31 + uint64(pos)
					pos++
				}
				if !r.write(batch, stop) {
					fail("epoch %d: write aborted", epoch)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			sizeRng := rand.New(rand.NewSource(consumerSeed))
			buf := make([]any, maxRead)
			pos := consumed
			for left := target; left > 0; {
				n := 1 + sizeRng.Int63n(maxRead)
				if n > left {
					n = left
				}
				if !r.read(buf, n, stop) {
					fail("epoch %d: read aborted", epoch)
					return
				}
				for _, v := range buf[:n] {
					if v != any(pos) {
						fail("epoch %d: position %d carries %v", epoch, pos, v)
						return
					}
					gotSum = gotSum*31 + uint64(v.(int64))
					pos++
				}
				left -= n
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		produced += batchTokens
		consumed += target

		// Quiescent point: the residue is intact and in order.
		live := make([]any, produced-consumed)
		if r.len() != int64(len(live)) {
			t.Fatalf("epoch %d: occupancy %d, want %d", epoch, r.len(), len(live))
		}
		r.peek(live)
		for i, v := range live {
			if v != any(consumed+int64(i)) {
				t.Fatalf("epoch %d: residue[%d] = %v, want %d", epoch, i, v, consumed+int64(i))
			}
		}
		switch {
		case epoch%50 == 49:
			cancelParkedSides(t, r, live)
		case epoch%3 == 0:
			r.restore(live)
		case epoch%7 == 0 && r.cap() < maxCap:
			r.grow(r.cap() + 1)
		}
	}

	for _, v := range r.drain() {
		gotSum = gotSum*31 + uint64(v.(int64))
		consumed++
	}
	if consumed != produced || gotSum != wantSum {
		t.Fatalf("consumed %d of %d tokens, checksum %#x, want %#x", consumed, produced, gotSum, wantSum)
	}
	if stats {
		t.Logf("producer: %d parks, %d spins, %d wakes; consumer: %d parks, %d spins, %d wakes",
			r.pst.parks, r.pst.spins, r.pst.wakes, r.cst.parks, r.cst.spins, r.cst.wakes)
		if r.pst.parks+r.pst.spins == 0 || r.cst.parks+r.cst.spins == 0 {
			t.Error("a side never waited: the ring is too large to exercise the blocking protocol")
		}
	}
}

// cancelParkedSides exercises the stop-channel wake at a quiescent point of
// a ring holding live: a consumer asking for more than the ring holds and a
// producer facing a full ring both raise their flag, and closing stop must
// release each with a false return, nothing consumed or published. Both
// leave the blocking protocol dirty (a raised flag, possibly a wake token),
// which is restore's job to reset — the engine's rollback path after an
// aborted epoch.
func cancelParkedSides(t *testing.T, r *ring, live []any) {
	t.Helper()
	res := make(chan bool, 1)

	stop := make(chan struct{})
	more := int64(len(live)) + 1
	go func() { res <- r.read(make([]any, more), more, stop) }()
	for !r.cwait.Load() {
		runtime.Gosched()
	}
	close(stop)
	if <-res {
		t.Fatal("read on a drained ring returned true after stop")
	}

	stop = make(chan struct{})
	if !r.writeNil(r.cap()-int64(len(live)), stop) {
		t.Fatal("filling the ring blocked")
	}
	go func() { res <- r.write([]any{nil}, stop) }()
	for !r.pwait.Load() {
		runtime.Gosched()
	}
	close(stop)
	if <-res {
		t.Fatal("write on a full ring returned true after stop")
	}
	if r.len() != r.cap() {
		t.Fatalf("cancelled ops moved the cursors: occupancy %d, want %d", r.len(), r.cap())
	}
	r.restore(live)
}
