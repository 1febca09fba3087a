package harness

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// ---------------------------------------------------------------------------
// The table writer: every experiment prints its rows through WriteTable, each
// column declared once, as a tag on the row type's field.

// WriteTable writes rows, a slice of structs, as a text table under one
// header row. A field tagged `col:"<header>[,<format>]"` is a column, in
// field order; an untagged field is not printed. A cell is formatted by the
// field's type, then by the tag's format:
//
//   - a time.Duration by fmtDur, whatever the format;
//   - format "bytes": an integer byte count, by obs.FormatBytes;
//   - a format ending in "%%" is a percentage: the field is a fraction and is
//     multiplied by 100 before the verb sees it ("%.0f%%");
//   - any other format is a fmt verb ("%.1f×", "%d³", "%d B"); none is "%v".
//
// A slice field is one column per element of the first row's slice, each
// headed fmt.Sprintf(header, index) ("node %d"). A non-empty note ends the
// header row as one more cell ("[p=4]") over an empty cell on every row. No
// rows print nothing, not even the header.
func WriteTable[R any](out io.Writer, rows []R, note string) {
	if len(rows) == 0 {
		return
	}
	type column struct {
		field          int
		header, format string
	}
	var cols []column
	t := reflect.TypeFor[R]()
	for i := range t.NumField() {
		if tag, ok := t.Field(i).Tag.Lookup("col"); ok {
			header, format, _ := strings.Cut(tag, ",")
			cols = append(cols, column{i, header, format})
		}
	}

	var head []string
	for _, c := range cols {
		if t.Field(c.field).Type.Kind() != reflect.Slice {
			head = append(head, c.header)
		} else {
			for i := range reflect.ValueOf(rows[0]).Field(c.field).Len() {
				head = append(head, fmt.Sprintf(c.header, i))
			}
		}
	}
	if note != "" {
		head = append(head, note)
	}
	tw := newTable(out)
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for _, r := range rows {
		var cells []string
		v := reflect.ValueOf(r)
		for _, c := range cols {
			f := v.Field(c.field)
			if f.Kind() != reflect.Slice {
				cells = append(cells, cell(f, c.format))
				continue
			}
			for i := range f.Len() {
				cells = append(cells, cell(f.Index(i), c.format))
			}
		}
		if note != "" {
			cells = append(cells, "")
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
}

// cell formats one value by WriteTable's rules.
func cell(v reflect.Value, format string) string {
	switch {
	case v.Type() == reflect.TypeFor[time.Duration]():
		return fmtDur(time.Duration(v.Int()))
	case format == "bytes":
		return obs.FormatBytes(v.Int())
	case strings.HasSuffix(format, "%%"):
		return fmt.Sprintf(format, 100*v.Float())
	case format == "":
		format = "%v"
	}
	return fmt.Sprintf(format, v.Interface())
}

// newTable is the one table layout: left-aligned columns two spaces apart.
// The one table WriteTable does not print, the Figure 5/6 pivot, uses it too.
func newTable(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
