package trace

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"Method", "Time(ms)"}, [][]string{
		{"QMask", "200"},
		{"Canny", "1040"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Method") || !strings.Contains(lines[0], "Time(ms)") {
		t.Errorf("header wrong: %q", lines[0])
	}
	// Columns align: "Time(ms)" starts at the same offset everywhere.
	off := strings.Index(lines[0], "Time(ms)")
	if strings.Index(lines[2], "200") != off {
		t.Errorf("misaligned column:\n%s", out)
	}
}

func TestGantt(t *testing.T) {
	out := Gantt([]GanttItem{
		{Lane: 0, Label: "A1", Start: 0, End: 50},
		{Lane: 1, Label: "B1", Start: 50, End: 100},
	}, 40)
	if !strings.Contains(out, "PE0") || !strings.Contains(out, "PE1") {
		t.Errorf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "A1") || !strings.Contains(out, "B1") {
		t.Errorf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "time 0..100") {
		t.Errorf("missing time span:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := Gantt(nil, 40); !strings.Contains(out, "empty") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestSeries(t *testing.T) {
	out := Series("beta", []int64{10, 20}, map[string][]int64{
		"tpdf": {100, 200},
		"csdf": {150, 300},
	}, []string{"tpdf", "csdf"})
	for _, frag := range []string{"beta", "tpdf", "csdf", "10", "300"} {
		if !strings.Contains(out, frag) {
			t.Errorf("series missing %q:\n%s", frag, out)
		}
	}
}
