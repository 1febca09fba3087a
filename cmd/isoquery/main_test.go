package main

import "testing"

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
