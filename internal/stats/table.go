package stats

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// Table renders aligned plain-text tables for the experiment reports.
type Table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// trimFloat formats floats compactly.
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if v >= 100 || v <= -100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// CSV renders the table as RFC-4180 CSV (header row first; the title and
// notes are omitted — they are prose, not data). Used by `cmd/tables
// -csv` to export experiment data for external plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// Writes to a strings.Builder cannot fail; csv.Writer stores no error
	// for valid UTF-8 records, so Flush/Error handling below is defensive.
	_ = w.Write(t.header)
	for _, row := range t.rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Table returns t itself, letting a bare *Table satisfy render-and-export
// interfaces alongside experiment result types.
func (t *Table) Table() *Table { return t }

// String renders the table.
func (t *Table) String() string {
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
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
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
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
