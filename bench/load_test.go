package main

import (
	"testing"
	"time"
)

func TestDueTimesFollowRate(t *testing.T) {
	start := time.Unix(1000, 0)
	due := dueTimes(start, 81, 80)
	if len(due) != 81 {
		t.Fatalf("%d due times, want 81", len(due))
	}
	if !due[0].Equal(start) {
		t.Errorf("first request due at %v, want the start", due[0])
	}
	if got := due[1].Sub(due[0]); got != 12500*time.Microsecond {
		t.Errorf("spacing %v at 80/s, want 12.5ms", got)
	}
	// No drift: the schedule is computed from the start, not accumulated.
	if got := due[80].Sub(start); got != time.Second {
		t.Errorf("request 80 due after %v at 80/s, want 1s", got)
	}
}

func TestWindowSpansFirstDueToLastCompletion(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	outs := []outcome{
		// Closed loop: a client's next request is due when its previous
		// one completes.
		{due: at(0), done: 40 * time.Millisecond, finished: true},
		{due: at(0), done: 70 * time.Millisecond, finished: true},
		{due: at(40), done: 50 * time.Millisecond, finished: true},
		{due: at(70), done: 30 * time.Millisecond, finished: true},
		// A request that never finished extends nothing.
		{due: at(90), ack: 500 * time.Millisecond, acked: true},
	}
	if got := window(outs); got != 100*time.Millisecond {
		t.Errorf("window = %v, want 100ms (first due at 0, last done at 100)", got)
	}
	if !outs[4].failed() {
		t.Error("an unfinished request is not counted as failed")
	}
	if got := window([]outcome{{due: t0, fail: "refused"}}); got != 0 {
		t.Errorf("window with no completions = %v, want 0", got)
	}
}
