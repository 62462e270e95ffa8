package exp

import (
	"fmt"
	"strings"
)

// Table is the result of one experiment: one row per x-axis setting, one
// Measure per algorithm column.
type Table struct {
	ID      string // e.g. "Table 1", "Fig 17"
	Title   string
	XLabel  string
	Xs      []string
	Columns []Algo
	Cells   [][]Measure // [x][column]
	// Notes are free-form lines appended below the table — build-side
	// observations (construction wall time, worker count, label bytes)
	// that have no column of their own.
	Notes []string
}

// Format renders the table in the paper's style: per algorithm, the I/O
// count, CPU time and total cost under the 10 ms/I-O model. Rows and
// columns render in the slice order the experiment fixed; the same Table
// always renders the same bytes.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | %22s", fmt.Sprintf("%s (IO / CPUs / total)", c))
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 12+len(t.Columns)*25))
	b.WriteString("\n")
	for i, x := range t.Xs {
		fmt.Fprintf(&b, "%-12s", x)
		for j := range t.Columns {
			m := t.Cells[i][j]
			fmt.Fprintf(&b, " | %7.1f %6.3f %7.2f", m.IO, m.CPU, m.Total())
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}
