// Package metrics provides the result-table plumbing shared by the
// benchmark harness: typed result rows, ASCII rendering, and ratio helpers,
// so every experiment prints its figure or table in a uniform format.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned result table.
type Table struct {
	Title   string
	Caption string
	header  []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// SetCaption attaches an explanatory line printed under the title.
func (t *Table) SetCaption(format string, args ...any) {
	t.Caption = fmt.Sprintf(format, args...)
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// FormatFloat renders floats compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(w, "%s\n", t.Caption)
	}
	fmt.Fprintln(w, line(t.header))
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Speedup formats a ratio as "N.NNx".
func Speedup(baseline, improved float64) string {
	if improved == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", baseline/improved)
}

// Percent formats a fraction as a percentage.
func Percent(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}

// Quantiles formats p50/p95/p99 from a quantile function (such as
// (*stats.Histogram).Quantile) as cycle counts.
func Quantiles(q func(float64) uint64) string {
	return fmt.Sprintf("p50=%d p95=%d p99=%d cyc", q(0.50), q(0.95), q(0.99))
}

// Mpps converts cycles-per-packet at a clock frequency to millions of
// packets per second.
func Mpps(cyclesPerPacket float64, ghz float64) float64 {
	if cyclesPerPacket == 0 {
		return 0
	}
	return ghz * 1e3 / cyclesPerPacket
}
