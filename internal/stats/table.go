// Package stats provides the small reporting toolkit the experiment
// harness uses: aligned text tables, number formatters, and the mean
// helper.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title string
	Cols  []string
	rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends one row; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	var line strings.Builder
	for i, c := range t.Cols {
		fmt.Fprintf(&line, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", sum(widths)+2*len(widths)-2))
	for _, r := range t.rows {
		line.Reset()
		for i := range t.Cols {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&line, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// F formats a float with 3 decimals (the normalized-time precision the
// paper's figures resolve).
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio change as a signed percentage.
func Pct(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }

// Mean returns the arithmetic mean (the paper averages normalized
// execution times arithmetically, reporting AVG and AVGnomcf).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
