package fuzz

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sinkrec"
	"repro/tpdf"
)

// TestWatchdogOnGeneratedDeadlocks covers the stall watchdog over the
// generated deadlock-prone family: under a capacity-1 override every
// DeadlockCase graph must trip the watchdog with a diagnostic that names
// a stalled actor and the ring occupancy, the failed run must release its
// goroutines (the engine stays drainable), and the same graph must run
// clean at default capacities.
func TestWatchdogOnGeneratedDeadlocks(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, victim := DeadlockCase(seed)
			sinks := SinkNodes(g)

			before := runtime.NumGoroutine()
			rec := sinkrec.New(sinks)
			_, err := tpdf.Stream(g, rec.Behaviors(),
				tpdf.WithIterations(4),
				tpdf.WithChannelCapacity(1),
				tpdf.WithStallTimeout(25*time.Millisecond))
			if err == nil {
				t.Fatalf("seed %d: capacity-1 run completed; want a deadlock", seed)
			}
			msg := err.Error()
			if !strings.Contains(msg, "deadlock") {
				t.Fatalf("seed %d: error is not a deadlock diagnostic: %v", seed, err)
			}
			if !strings.Contains(msg, "ring occupancy:") {
				t.Fatalf("seed %d: diagnostic lacks ring occupancy: %v", seed, err)
			}
			if !strings.Contains(msg, "actor ") {
				t.Fatalf("seed %d: diagnostic names no stalled actor: %v", seed, err)
			}
			// The fatal clique always involves the diamond: its member must
			// appear somewhere in the diagnostic (as a blocked actor or on a
			// reported edge endpoint).
			if !strings.Contains(msg, victim) && !strings.Contains(msg, "A") {
				t.Fatalf("seed %d: diagnostic names neither %q nor the diamond: %v", seed, victim, err)
			}

			// Drainability: the failed run must have torn down its actor
			// goroutines — a leaked engine would strand them parked forever.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+2 {
				t.Fatalf("seed %d: failed run leaked goroutines: %d -> %d", seed, before, after)
			}

			// And the graph itself is fine: default capacities run clean.
			rec2 := sinkrec.New(sinks)
			if _, err := tpdf.Stream(g, rec2.Behaviors(), tpdf.WithIterations(4)); err != nil {
				t.Fatalf("seed %d: default-capacity run failed: %v", seed, err)
			}
		})
	}
}
