package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"droidracer"
	"droidracer/internal/jobs"
	"droidracer/internal/server"
)

// expectedSeed1 is the checked-in reference for seed 1. Keeping it fixed
// means a change that alters any race set fails the benchmark on seed 1
// even if it alters the graph engine the other seeds compare against.
//
//go:embed testdata/expected-seed1.json
var expectedSeed1 []byte

// answer is the reference result for one base body: what the graph
// engine reports through droidracer.Analyze, fingerprinted with
// jobs.ResultDigest exactly as the daemon journals it.
type answer struct {
	Key    string `json:"key"`
	App    string `json:"app"`
	Round  int    `json:"round"`
	Ops    int    `json:"ops"`
	Races  int    `json:"races"`
	Digest string `json:"digest"`
}

// reference is the expected-answers file.
type reference struct {
	Seed    int64    `json:"seed"`
	Answers []answer `json:"answers"`
}

// graphAnswer analyzes one base body with the graph engine.
func graphAnswer(body []byte) (answer, error) {
	tr, err := droidracer.ParseTrace(bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	res, err := droidracer.Analyze(tr, droidracer.DefaultOptions())
	if err != nil {
		return answer{}, err
	}
	if res.Degraded {
		return answer{}, fmt.Errorf("graph analysis degraded: %v", res.DegradedReason)
	}
	return answer{
		Key:    server.IdempotencyKey(body),
		Ops:    tr.Len(),
		Races:  len(res.Races),
		Digest: jobs.ResultDigest(res),
	}, nil
}

// computeAnswers runs the graph oracle on the listed bases, two at a
// time (the load generator's own thread budget).
func computeAnswers(w workload, corpus [][]byte, bases []int) (map[int]answer, error) {
	out := make(map[int]answer, len(bases))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	work := make(chan int)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				a, err := graphAnswer(corpus[b])
				a.App, a.Round = w.apps[b%len(w.apps)], b/len(w.apps)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle for %s round %d: %w", a.App, a.Round, err)
				}
				out[b] = a
				mu.Unlock()
			}
		}()
	}
	for _, b := range bases {
		work <- b
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// oracle returns the expected answer per base index for the listed
// bases: from the checked-in file for seed 1, computed by the graph
// engine for any other seed.
func oracle(w workload, corpus [][]byte, bases []int, seed int64) (map[int]answer, error) {
	if seed != 1 {
		return computeAnswers(w, corpus, bases)
	}
	var ref reference
	if err := json.Unmarshal(expectedSeed1, &ref); err != nil {
		return nil, fmt.Errorf("expected-seed1.json: %w", err)
	}
	byKey := make(map[string]answer, len(ref.Answers))
	for _, a := range ref.Answers {
		byKey[a.Key] = a
	}
	out := make(map[int]answer, len(bases))
	for _, b := range bases {
		key := server.IdempotencyKey(corpus[b])
		a, ok := byKey[key]
		if !ok {
			return nil, fmt.Errorf("expected-seed1.json has no answer for %s round %d (key %s): the corpus changed; regenerate it with BENCH_UPDATE=1 go test -run TestExpectedSeed1",
				w.apps[b%len(w.apps)], b/len(w.apps), key)
		}
		out[b] = a
	}
	return out, nil
}

// distinctBases lists the base indices the requests use, in first-use
// order.
func distinctBases(reqs []request) []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range reqs {
		if !seen[r.base] {
			seen[r.base] = true
			out = append(out, r.base)
		}
	}
	return out
}
