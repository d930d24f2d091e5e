package main

import (
	"reflect"
	"testing"
)

func TestScheduleIsAppStratified(t *testing.T) {
	for _, w := range workloads {
		a := len(w.apps)
		n := 3*w.baseCount() + a/2 // a ragged last block too
		order := schedule(w, n, 7)
		if len(order) != n {
			t.Fatalf("%s: %d requests scheduled, want %d", w.name, len(order), n)
		}
		for start := 0; start+a <= n; start += a {
			block := start / a
			seen := make(map[int]bool)
			for _, base := range order[start : start+a] {
				app, round := base%a, base/a
				if seen[app] {
					t.Fatalf("%s: block %d has app %d twice", w.name, block, app)
				}
				seen[app] = true
				if round != block%w.rounds {
					t.Fatalf("%s: block %d uses round %d, want %d", w.name, block, round, block%w.rounds)
				}
			}
		}
		// Every base is used once before any is reused.
		first := make(map[int]bool)
		for _, base := range order[:w.baseCount()] {
			first[base] = true
		}
		if len(first) != w.baseCount() {
			t.Errorf("%s: first %d requests use %d distinct bases", w.name, w.baseCount(), len(first))
		}
		if !reflect.DeepEqual(order, schedule(w, n, 7)) {
			t.Errorf("%s: same seed, different schedule", w.name)
		}
		if a > 1 && reflect.DeepEqual(order, schedule(w, n, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
	}
}

func TestRequestCountScalesWithSeconds(t *testing.T) {
	w, err := findWorkload("ingest-small")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.requestCount(15); got != 240 {
		t.Errorf("ingest-small sends %d requests in 15s, want 240 at 16/s", got)
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
