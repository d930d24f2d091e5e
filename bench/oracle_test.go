package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"droidracer/internal/server"
	"droidracer/internal/trace"
)

// seed1Reference computes the graph engine's answers for every base body
// any workload uses at seed 1.
func seed1Reference(t *testing.T) reference {
	t.Helper()
	seen := make(map[string]bool)
	ref := reference{Seed: 1}
	for _, w := range workloads {
		corpus, err := w.corpus(1, w.baseCount())
		if err != nil {
			t.Fatal(err)
		}
		var bases []int
		for b, body := range corpus {
			if key := server.IdempotencyKey(body); !seen[key] {
				seen[key] = true
				bases = append(bases, b)
			}
		}
		got, err := computeAnswers(w, corpus, bases)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bases {
			ref.Answers = append(ref.Answers, got[b])
		}
	}
	sort.Slice(ref.Answers, func(i, j int) bool {
		a, b := ref.Answers[i], ref.Answers[j]
		if a.App != b.App {
			return a.App < b.App
		}
		return a.Round < b.Round
	})
	return ref
}

// TestExpectedSeed1 pins the checked-in reference to what the graph
// engine computes today. BENCH_UPDATE=1 rewrites the file instead.
func TestExpectedSeed1(t *testing.T) {
	ref := seed1Reference(t)
	if os.Getenv("BENCH_UPDATE") == "1" {
		data, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/expected-seed1.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var file reference
	if err := json.Unmarshal(expectedSeed1, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, ref) {
		t.Fatalf("testdata/expected-seed1.json differs from the graph engine's answers at seed 1; if the change is intended, regenerate with BENCH_UPDATE=1 go test -run TestExpectedSeed1")
	}
}

// TestNonceKeepsTrace checks the premise of fresh submissions: a
// nonce-prefixed body parses to the same trace as its base but has a
// different idempotency key, so the daemon analyzes it anew and must
// answer with the base body's reference result.
func TestNonceKeepsTrace(t *testing.T) {
	corpus, err := workloads[0].corpus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := corpus[0]
	body := request{nonce: nonceLine(1, 7)}.body(corpus)
	if server.IdempotencyKey(body) == server.IdempotencyKey(base) {
		t.Fatal("nonce did not change the idempotency key")
	}
	if server.IdempotencyKey(body) == server.IdempotencyKey(request{nonce: nonceLine(1, 8)}.body(corpus)) {
		t.Fatal("two nonces gave the same idempotency key")
	}
	want, err := trace.ParseBytes(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ParseBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.Format(&a, want); err != nil {
		t.Fatal(err)
	}
	if err := trace.Format(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("nonce-prefixed body parses to a different trace")
	}
}
