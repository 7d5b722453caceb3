// Package report regenerates every table and figure of the paper's
// evaluation from a built dataset: the same rows and series, printed as
// text. Each experiment has a typed result struct plus a Text renderer,
// so benchmarks, commands and tests can consume either form.
package report

import (
	"fmt"
	"strings"
)

// textTable renders rows with aligned columns.
func textTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func pct(x float64) string  { return fmt.Sprintf("%.1f%%", 100*x) }
func itoa(n int) string     { return fmt.Sprintf("%d", n) }
func f2(x float64) string   { return fmt.Sprintf("%.2f", x) }
func day(n int) string      { return fmt.Sprintf("%dd", n) }
func fday(x float64) string { return fmt.Sprintf("%.0fd", x) }
