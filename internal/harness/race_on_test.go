//go:build race

package harness

// raceEnabled reports that the race detector is on, under which the
// serving-tier load experiments take the better part of go test's timeout.
const raceEnabled = true
