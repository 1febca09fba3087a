package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when asked to, so a test can drive
// isoquery end to end in a child process of its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("ISOQUERY_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFramePattern holds a -step range's output patterns to exactly one
// integer verb, so every step gets its own file and no path carries
// fmt's %!(EXTRA …) or %!s(…) noise.
func TestFramePattern(t *testing.T) {
	for _, c := range []struct {
		p  string
		ok bool
	}{
		{"out.png", false},            // no verb: every step would overwrite one file
		{"f-%d-%d.png", false},        // two verbs
		{"f-%s.png", false},           // not an integer verb
		{"100%%.png", false},          // %% alone is a literal percent sign
		{"f-%03d.png", true},          // the usual frame pattern
		{"frames/%x-100%%.obj", true}, // one verb beside a literal %
		{"f-%", false},                // unfinished verb
	} {
		if err := framePattern(c.p); (err == nil) != c.ok {
			t.Errorf("framePattern(%q) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

// TestUnknownMeshExtension: a -mesh path whose format isoquery cannot write
// is refused before anything is preprocessed or extracted, and leaves no
// file behind.
func TestUnknownMeshExtension(t *testing.T) {
	for _, name := range []string{"x.xyz", "s-%03d.xyz"} {
		path := filepath.Join(t.TempDir(), name)
		args := []string{"-nx", "16", "-ny", "16", "-nz", "16", "-mesh", path}
		if strings.Contains(name, "%") {
			args = append(args, "-step", "180:181")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ISOQUERY_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("-mesh %s: exit 0, want a failure\n%s", name, out)
		}
		if !strings.Contains(string(out), "unknown mesh extension") || strings.Contains(string(out), "isovalue") {
			t.Errorf("-mesh %s: want only the extension error, before any extraction; got\n%s", name, out)
		}
		matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
		if len(matches) != 0 {
			t.Errorf("-mesh %s left %v behind", name, matches)
		}
	}
}
