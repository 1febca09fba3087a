package cli

import (
	"slices"
	"testing"
)

// TestParseSteps covers -step's two forms and the values the generator
// cannot run.
func TestParseSteps(t *testing.T) {
	for _, c := range []struct {
		v      string
		steps  []int
		ranged bool
	}{
		{"250", []int{250}, false},
		{"180:182", []int{180, 181, 182}, true},
		{"0:9:4", []int{0, 4, 8}, true},
		{"7:7", []int{7}, true},
	} {
		steps, ranged, err := parseSteps(c.v)
		if err != nil || !slices.Equal(steps, c.steps) || ranged != c.ranged {
			t.Errorf("parseSteps(%q) = %v, %v, %v; want %v, %v", c.v, steps, ranged, err, c.steps, c.ranged)
		}
	}
	for _, v := range []string{"", "x", "-1", "270", "5:4", "1:2:0", "1:2:3:4", "1:"} {
		if _, _, err := parseSteps(v); err == nil {
			t.Errorf("parseSteps(%q) accepted", v)
		}
	}
}
