package experiment

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

var (
	// ErrBadTable reports malformed table operations.
	ErrBadTable = errors.New("experiment: bad table")
	// ErrBadOptions reports invalid experiment options.
	ErrBadOptions = errors.New("experiment: bad options")
)

// Table is a rectangular result table with a title and caption note.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("%w: no columns", ErrBadTable)
	}
	return &Table{Title: title, Columns: columns}, nil
}

// AddRow appends one row; the cell count must match the header.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("%w: %d cells for %d columns", ErrBadTable, len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// Render writes an aligned text rendering.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		b.WriteString("note: " + t.Note + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (header + rows).
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("experiment: write csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float with 4 decimal places for table cells.
func F(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// F2 formats a float with 2 decimal places.
func F2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// I formats an int.
func I(v int) string { return strconv.Itoa(v) }

// B formats a pass/fail check.
func B(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
