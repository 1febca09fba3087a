package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenTables pins the text of every registry entry whose table holds no
// wall-clock cell: at Small() their output is a function of the code alone, so
// any change to a row type's columns, a cell's format or the table layout
// shows up here as a byte diff against testdata/<name>.golden.
func TestGoldenTables(t *testing.T) {
	golden := []string{
		"table1", "table6", "table7", "fig4",
		"ablation-index", "ablation-distribution", "ablation-bulkread", "ablation-metacell",
	}
	for _, name := range golden {
		t.Run(name, func(t *testing.T) {
			exps := SelectExperiments(Experiments(""), name)
			if len(exps) != 1 {
				t.Fatalf("%d registry entries named %q", len(exps), name)
			}
			var out bytes.Buffer
			if _, err := exps[0].Report(context.Background(), Small(), &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", name, out.Bytes(), want)
			}
		})
	}
}

// TestWriteTable pins WriteTable's rules on one row type that uses each of
// them: untagged fields are skipped, a Duration ignores its format, "%%" scales
// a fraction, "bytes" and slice columns, and the note's trailing cell.
func TestWriteTable(t *testing.T) {
	type row struct {
		Name   string        `col:"name"`
		Hidden int           // not a column
		Took   time.Duration `col:"took,%d"`
		Share  float64       `col:"share,%.1f%%"`
		Size   int64         `col:"size,bytes"`
		Nodes  []int         `col:"n%d"`
	}
	rows := []row{
		{"a", 7, 1500 * time.Microsecond, 0.125, 2048, []int{1, 2}},
		{"bb", 0, 3 * time.Second, 1, 10, []int{30, 4}},
	}
	var out bytes.Buffer
	WriteTable(&out, rows, "[x]")
	want := "name  took   share   size     n0  n1  [x]\n" +
		"a     1.5ms  12.5%   2.00 KB  1   2   \n" +
		"bb    3.00s  100.0%  10 B     30  4   \n"
	if out.String() != want {
		t.Errorf("got:\n%q\nwant:\n%q", out.String(), want)
	}
	out.Reset()
	WriteTable(&out, []row{}, "[x]")
	if out.Len() != 0 {
		t.Errorf("no rows printed %q", out.String())
	}
}
