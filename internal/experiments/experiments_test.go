package experiments

import (
	"strings"
	"testing"
)

func TestF1(t *testing.T) {
	out, err := F1()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"[3 2 2]", "(a3)^2 (a1)^3 (a2)^2", "returns to initial state: true"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F1 missing %q:\n%s", frag, out)
		}
	}
}

func TestF2(t *testing.T) {
	out, err := F2()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Area(C) = {B,D,E,F}", "qG = p", "rate safe: true", "bounded: true"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F2 missing %q:\n%s", frag, out)
		}
	}
}

func TestF3(t *testing.T) {
	out, err := F3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "boundedness preserved: true") {
		t.Errorf("F3 wrong:\n%s", out)
	}
}

func TestF4(t *testing.T) {
	out, err := F4()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"(B B C C)", "(B C C B)", "DEADLOCK"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F4 missing %q:\n%s", frag, out)
		}
	}
}

func TestF5(t *testing.T) {
	out, err := F5()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"canonical period", "PE0", "makespan"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F5 missing %q:\n%s", frag, out)
		}
	}
}

func TestF6TableAndDeadline(t *testing.T) {
	out, err := F6Table(128, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"QMask", "Canny", "1040"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F6Table missing %q:\n%s", frag, out)
		}
	}
	dl, err := F6Deadline()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"500", "Sobel", "Canny"} {
		if !strings.Contains(dl, frag) {
			t.Errorf("F6Deadline missing %q:\n%s", frag, dl)
		}
	}
}

func TestF7(t *testing.T) {
	out, err := F7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bounded") {
		t.Errorf("F7 wrong:\n%s", out)
	}
}

func TestF8(t *testing.T) {
	out, err := F8([]int64{10, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"N = 512", "N = 1024", "paperTPDF", "mean improvement"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F8 missing %q:\n%s", frag, out)
		}
	}
	// The improvement percentage appears and is ≈ 29%.
	if !strings.Contains(out, "29.") && !strings.Contains(out, "30.") && !strings.Contains(out, "28.") {
		t.Errorf("F8 improvement not ≈29%%:\n%s", out)
	}
}

func TestExtensions(t *testing.T) {
	for name, f := range map[string]func() (string, error){
		"ScheduleAblation":     ScheduleAblation,
		"PlatformSweep":        PlatformSweep,
		"FMRadioComparison":    FMRadioComparison,
		"ADFPruning":           ADFPruning,
		"AVCQualityThreshold":  AVCQualityThreshold,
		"ThroughputValidation": ThroughputValidation,
		"PipelinedScheduling":  PipelinedScheduling,
		"CapacityMinimization": CapacityMinimization,
	} {
		out, err := f()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(out) < 50 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
	}
}

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short")
	}
	out, err := All(Options{Quick: true, Measure: true, Parallel: 1})
	if err != nil {
		t.Fatalf("%v\npartial output:\n%s", err, out)
	}
	for _, frag := range []string{"EXP-F1", "EXP-F2", "EXP-F3", "EXP-F4", "EXP-F5",
		"EXP-T6", "EXP-F6", "EXP-F7", "EXP-F8", "EXT-A1", "EXT-A2", "EXT-A3"} {
		if !strings.Contains(out, frag) {
			t.Errorf("All() missing %q", frag)
		}
	}
}
