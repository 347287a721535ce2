package sinkrec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/runner"
)

// TestConcurrentSinksAndRollback fires every sink's behavior from its own
// goroutine at once (the engine's execution model; -race is the judge),
// then checks the snapshot has the codec-friendly shape and that Restore
// rewinds exactly to it.
func TestConcurrentSinksAndRollback(t *testing.T) {
	sinks := []string{"c", "a", "b", "d"}
	r := New(sinks)
	behaviors := r.Behaviors()
	fire := func(rounds int) {
		var wg sync.WaitGroup
		for i, name := range sinks {
			wg.Add(1)
			go func(width int, b runner.Behavior) {
				defer wg.Done()
				f := &runner.Firing{In: map[string][]any{"i0": make([]any, width)}}
				for k := 0; k < rounds; k++ {
					if err := b(f); err != nil {
						t.Error(err)
					}
				}
			}(i+1, behaviors[name])
		}
		wg.Wait()
	}

	fire(100)
	snap := r.Snapshot()
	want, snapText := fmt.Sprint(r.Seq()), fmt.Sprint(snap)
	vals, ok := snap.([]any)
	if !ok || len(vals) != len(sinks) {
		t.Fatalf("snapshot is %T, want []any with one entry per sink", snap)
	}
	for i, v := range vals {
		if s, ok := v.([]int64); !ok || len(s) != 100 {
			t.Fatalf("snapshot[%d] is %T (len %d), want []int64 of 100", i, v, len(s))
		}
	}
	if got := r.Seq()["c"]; got[0] != 1 || r.Seq()["d"][0] != 4 {
		t.Fatalf("sequences not keyed by sink name: %v", r.Seq())
	}

	fire(7) // the aborted transaction
	r.Restore(snap)
	if got := fmt.Sprint(r.Seq()); got != want {
		t.Fatalf("restore did not rewind:\n got %s\nwant %s", got, want)
	}
	fire(1)
	if got := fmt.Sprint(snap); got != snapText {
		t.Fatal("firings after Restore wrote through into the snapshot")
	}
}
