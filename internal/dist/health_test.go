package dist

import (
	"testing"
	"time"
)

// samePlaces fails the test unless got is want, element for element.
func samePlaces(t *testing.T, when string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: candidates %v, want %v", when, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidates %v, want %v", when, got, want)
		}
	}
}

// TestHealthCooldownContract is what TestPassiveRevival checks over TCP, on
// the type alone: marked down ⇒ skipped inside the cooldown ⇒ tried after it
// ⇒ revived by a success or re-stamped by a failure, and listed exactly once
// at every stage. The cooldown never elapses on the wall clock; the test
// ages the stamp.
func TestHealthCooldownContract(t *testing.T) {
	const cooldown = time.Hour
	h := newHealth(3, cooldown)
	ring := []int{1, 0, 2}
	elapse := func(ri int) { h.downAt[ri].Store(time.Now().Add(-2 * cooldown).UnixNano()) }

	samePlaces(t, "all up", h.healthyFirst(ring), ring)

	h.markDown(1)
	if !h.isDown(1) || h.up() != 2 {
		t.Fatalf("just marked down: isDown = %v, %d up; want true, 2", h.isDown(1), h.up())
	}
	samePlaces(t, "inside the cooldown", h.healthyFirst(ring), []int{0, 2, 1})
	h.markDown(0)
	h.markDown(2)
	samePlaces(t, "every replica down", h.healthyFirst(ring), ring)
	h.revive(0)
	h.revive(2)

	elapse(1)
	if h.isDown(1) || h.up() != 3 {
		t.Fatalf("cooldown elapsed: isDown = %v, %d up; want false, 3", h.isDown(1), h.up())
	}
	samePlaces(t, "cooldown elapsed", h.healthyFirst(ring), ring)

	h.markDown(1) // the retry failed: the clock starts again
	samePlaces(t, "re-stamped", h.healthyFirst(ring), []int{0, 2, 1})

	elapse(1)
	if !h.revive(1) {
		t.Fatal("a success on a marked-down replica did not report a revival")
	}
	if h.revive(1) {
		t.Fatal("one markDown was revived twice")
	}
	samePlaces(t, "revived", h.healthyFirst(ring), ring)
}
