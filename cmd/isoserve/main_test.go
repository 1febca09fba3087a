package main

import (
	"flag"
	"strings"
	"testing"
)

// TestCheckFlags runs main's flag checks over flag sets each mode accepts
// and ones no mode can run, which must be refused before anything is built.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"", true},
		{"-qps 200 -duration 1s", true},
		{"-replicas 3 -chaos drop=0.125,corrupt=0.25 -hedge 50ms", true},
		{"-replicas 3 -chaos drop=0.5 -chaos-replica 2", true},
		{"-serve 127.0.0.1:0 -chaos drop=0.5", true}, // -serve alone is a one-replica tier the injector can fault
		{"-serve 127.0.0.1:0 -clients 0 -requests 0", true},
		{"-connect 127.0.0.1:8080 -chaos latency=20ms", true},
		{"-chaos drop=0.5", false},
		{"-replicas 3 -chaos drop=0.5 -chaos-replica 3", false},
		{"-serve 127.0.0.1:0 -chaos drop=0.5 -chaos-replica 1", false},
		{"-replicas 2 -chaos nonsense", false},
		{"-zipf 1", false},
		{"-levels 1", false},
		{"-clients 0", false},
		{"-requests 0", false},
		{"-connect 127.0.0.1:8080 -replicas 2", false},
		{"-connect 127.0.0.1:8080 -serve 127.0.0.1:0", false},
	} {
		flag.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") {
				f.Value.Set(f.DefValue) //nolint:errcheck // a default always parses
			}
		})
		if err := flag.CommandLine.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if _, err := checkFlags(); (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want accepted = %v", tc.args, err, tc.ok)
		}
	}
}
