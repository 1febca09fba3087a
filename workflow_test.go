package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkflowStepNamesParse guards the CI workflows against the one YAML
// mistake that has stopped them from running: a plain (unquoted) scalar
// holding ": " or " #". YAML reads the first as a nested mapping and the
// second as a comment, so the file does not parse and the host runs none
// of it. A step name that needs either must be quoted or folded.
func TestWorkflowStepNamesParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			value, ok := strings.CutPrefix(strings.TrimSpace(line), "- name:")
			value = strings.TrimSpace(value)
			if !ok || value == "" || strings.ContainsAny(value[:1], `"'>|`) {
				continue // not a step name, or not a plain scalar
			}
			if strings.Contains(value, ": ") || strings.Contains(value, " #") {
				t.Errorf("%s:%d: plain-scalar step name holds \": \" or \" #\"; quote it: %s", file, i+1, value)
			}
		}
	}
}
