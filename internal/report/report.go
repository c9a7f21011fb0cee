// Package report renders experiment results as aligned text tables and CSV,
// the output format of cmd/repro and the bench harness.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Values are formatted with %v; float64 values get
// four significant digits and time-like strings pass through unchanged.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case fmt.Stringer:
			row[i] = x.String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV renders the table as CSV (RFC-4180-style quoting for cells
// containing commas, quotes, or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = csvEscape(c)
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// String renders the table as text.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Write(&sb)
	return sb.String()
}
