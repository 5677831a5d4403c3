// Package experiments implements the reproduction harness: one function per
// figure of the paper (E1-E8), three synthetic quantifications of its
// qualitative claims (E9-E11), and the multi-workstation throughput scenario
// E12. Each experiment returns a Report whose rows cmd/concordbench prints
// and whose execution bench_test.go times; DESIGN.md §6 is the index,
// EXPERIMENTS.md records paper-vs-measured. The performance figures of E13-E16
// and E18-E20 are pinned in EXPERIMENTS.md, and their gates are unit tests in
// the packages they guard; bench/ measures the live end-to-end numbers.
package experiments

import (
	"fmt"
	"strings"
)

// Report is the tabular outcome of one experiment.
type Report struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Title names the reproduced artifact.
	Title string
	// Header labels the columns.
	Header []string
	// Rows are the data rows.
	Rows [][]string
	// Notes records observations (expected shape, caveats).
	Notes []string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.1f", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }
