// Package trace renders the textual artifacts the benchmark harness and CLI
// tools emit: aligned tables (the paper's Fig. 6 table), CSV series (the
// Fig. 8 curves) and ASCII Gantt charts (the Fig. 5 canonical period).
package trace

import (
	"fmt"
	"strings"
)

// Table renders rows under headers with aligned columns.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// GanttItem is one bar on a Gantt chart.
type GanttItem struct {
	Lane  int // e.g. processing element index
	Label string
	Start int64
	End   int64
}

// Gantt renders items as ASCII lanes scaled to the given width. Bars are
// labelled with as much of their label as fits.
func Gantt(items []GanttItem, width int) string {
	if len(items) == 0 {
		return "(empty schedule)\n"
	}
	var maxLane int
	var span int64
	for _, it := range items {
		if it.Lane > maxLane {
			maxLane = it.Lane
		}
		if it.End > span {
			span = it.End
		}
	}
	if span == 0 {
		span = 1
	}
	if width < 20 {
		width = 20
	}
	scale := func(t int64) int {
		c := int(t * int64(width) / span)
		if c >= width {
			c = width - 1
		}
		return c
	}
	lanes := make([][]byte, maxLane+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	// Bars first, labels second, so a zero-duration marker (control actor)
	// sharing an instant with a long bar stays visible.
	for _, it := range items {
		s, e := scale(it.Start), scale(it.End)
		if e <= s {
			e = s + 1
		}
		for c := s; c < e && c < width; c++ {
			lanes[it.Lane][c] = '#'
		}
	}
	for _, it := range items {
		s, e := scale(it.Start), scale(it.End)
		if e <= s {
			e = s + 1
		}
		for i := 0; i < len(it.Label) && s+i < width && s+i < e; i++ {
			lanes[it.Lane][s+i] = it.Label[i]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0..%d\n", span)
	for i, lane := range lanes {
		fmt.Fprintf(&b, "PE%-3d |%s|\n", i, lane)
	}
	return b.String()
}

// Series renders an (x, y...) table for one plot, the textual stand-in for
// a paper figure: first column x, one column per named series.
func Series(xName string, xs []int64, series map[string][]int64, order []string) string {
	headers := append([]string{xName}, order...)
	var rows [][]string
	for i, x := range xs {
		row := []string{fmt.Sprint(x)}
		for _, name := range order {
			ys := series[name]
			if i < len(ys) {
				row = append(row, fmt.Sprint(ys[i]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return Table(headers, rows)
}
