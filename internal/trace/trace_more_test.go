package trace

import (
	"strings"
	"testing"
)

func TestGanttWidthClamp(t *testing.T) {
	// Very small requested widths are clamped to something drawable.
	out := Gantt([]GanttItem{{Lane: 0, Label: "X", Start: 0, End: 10}}, 1)
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "PE0") {
			line = l
		}
	}
	if len(line) < 20 {
		t.Errorf("clamped lane too narrow: %q", line)
	}
}

func TestGanttLongLabelTruncated(t *testing.T) {
	out := Gantt([]GanttItem{
		{Lane: 0, Label: "averyveryverylongname", Start: 0, End: 1},
		{Lane: 0, Label: "B", Start: 50, End: 100},
	}, 40)
	// The long label cannot spill past its bar into B's region.
	idxB := strings.Index(out, "B")
	if idxB < 0 {
		t.Fatalf("second bar missing:\n%s", out)
	}
	if strings.Contains(out, "averyveryverylongname") {
		t.Errorf("label not truncated to its bar:\n%s", out)
	}
}

func TestGanttZeroDurationVisible(t *testing.T) {
	// Zero-duration items (control actors) still render one cell.
	out := Gantt([]GanttItem{
		{Lane: 0, Label: "C", Start: 5, End: 5},
		{Lane: 0, Label: "K", Start: 0, End: 10},
	}, 40)
	if !strings.Contains(out, "C") {
		t.Errorf("zero-duration item invisible:\n%s", out)
	}
}

func TestTableEmptyRows(t *testing.T) {
	out := Table([]string{"a", "b"}, nil)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("empty table should have header + separator:\n%s", out)
	}
}

func TestSeriesMissingValues(t *testing.T) {
	out := Series("x", []int64{1, 2, 3}, map[string][]int64{"y": {10, 20}}, []string{"y"})
	if !strings.Contains(out, "3") {
		t.Errorf("x column truncated:\n%s", out)
	}
}
