package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"droidracer/internal/flood"
	"droidracer/internal/server"
)

// table2 lists the fifteen Table 2 app models in the paper's row order.
var table2 = []string{
	"Aard Dictionary", "Music Player", "My Tracks", "Messenger", "Tomdroid Notes",
	"FBReader", "Browser", "OpenSudoku", "K-9 Mail", "SGTPuzzles",
	"Remind Me", "Twitter", "Adobe Reader", "Facebook", "Flipkart",
}

// smallApps are the two Table 2 apps with the smallest traces
// (45–180 KB bodies, 1.3k–5.5k ops), where fixed per-request costs
// outweigh the engine.
var smallApps = []string{"Aard Dictionary", "Music Player"}

// workload is one traffic mix. Each run sends a fixed number of requests,
// perSecond × --seconds, never "as many as fit in the window": the daemon
// keeps every finished result in memory, so its footprint grows with the
// job count and only a fixed count makes peak_rss_mb comparable.
type workload struct {
	name string
	// apps × rounds base bodies come from flood.BuildCorpus; round r of
	// an app replays r+2 clicks, so every base body is distinct.
	apps   []string
	rounds int
	// engine is sent as X-Analysis-Engine; empty leaves the daemon's
	// default in charge.
	engine string
	// perSecond is the number of requests per second of --seconds. An
	// open loop sends them at that rate; outstanding > 0 instead makes a
	// closed loop of that many clients.
	perSecond   float64
	outstanding int
	// dup sends the base bodies themselves, after submitting and awaiting
	// each once, so every timed request is a duplicate of completed work.
	dup bool
}

// The workloads stress different layers, so a change to one layer has a
// workload that exercises it and one that bypasses it. Their counts keep
// the daemon near 1 GB and spread each run over its window; BENCHMARK.json
// and README.md give the reasons in full.
var workloads = []workload{
	// Graph closure and the race scan dominate, so this measures the
	// stock daemon's capacity and moves with engine changes. Two clients
	// keep both daemon workers busy without queueing behind a K-9 Mail
	// closure, which made latency depend on the request order.
	{name: "mix-default", apps: table2, rounds: 4, perSecond: 8, outstanding: 2},
	// On the stream path, parse, read-back and verify cost about as much
	// as the replay: front-of-pipeline work shows here.
	{name: "mix-stream", apps: table2, rounds: 4, engine: "stream", perSecond: 10},
	// Small bodies, where HTTP, the spool and journal fsyncs and the status
	// index outweigh the engine: per-request overhead shows here.
	{name: "ingest-small", apps: smallApps, rounds: 20, engine: "stream", perSecond: 16},
	// Duplicates of completed work take only the read, hash, index lookup
	// and reply: work moved ahead of the lookup shows here.
	{name: "replay-dup", apps: table2, rounds: 4, engine: "stream", perSecond: 100, dup: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (choices: %v)", name, names)
}

// requestCount is the fixed number of timed requests for a run of the
// given length.
func (w workload) requestCount(seconds float64) int {
	return int(math.Round(w.perSecond * seconds))
}

// baseCount is the number of distinct base bodies.
func (w workload) baseCount() int { return len(w.apps) * w.rounds }

// corpus builds the workload's first n base bodies (all of them for n =
// baseCount); the seed drives the explorer's scheduling, so another seed
// yields other traces.
func (w workload) corpus(seed int64, n int) ([][]byte, error) {
	return flood.BuildCorpus(w.apps, n, seed)
}

// request is one scheduled submission. Its body is the base body, after
// the nonce line for fresh work; bodies are assembled as they are sent,
// so a run never holds a second copy of the corpus.
type request struct {
	i     int
	base  int    // index into the workload's corpus
	nonce string // first line of the body; empty for a duplicate
	key   string // server.IdempotencyKey of the body
}

func (r request) dup() bool { return r.nonce == "" }

// body assembles the request body.
func (r request) body(corpus [][]byte) []byte {
	if r.dup() {
		return corpus[r.base]
	}
	b := make([]byte, 0, len(r.nonce)+len(corpus[r.base]))
	return append(append(b, r.nonce...), corpus[r.base]...)
}

// reader streams the request body without assembling it.
func (r request) reader(corpus [][]byte) (io.Reader, int64) {
	base := corpus[r.base]
	return io.MultiReader(strings.NewReader(r.nonce), bytes.NewReader(base)), int64(len(r.nonce) + len(base))
}

// schedule orders n requests over the bases. Requests come in blocks of
// len(apps): each block holds every app exactly once, in an order drawn
// from the seed, and block b uses round b mod rounds, so the app mix of
// any prefix is even and every base is used before any is reused.
func schedule(w workload, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	a := len(w.apps)
	out := make([]int, 0, n)
	for b := 0; len(out) < n; b++ {
		round := b % w.rounds
		for _, app := range rng.Perm(a) {
			if len(out) == n {
				break
			}
			out = append(out, round*a+app)
		}
	}
	return out
}

// nonceLine is the comment line that makes request i of a fresh
// workload new work. The trace parser skips '#' lines, so the body
// analyzes exactly like its base, but its idempotency key is new and the
// daemon analyzes it again.
func nonceLine(seed int64, i int) string {
	return fmt.Sprintf("# bench-nonce %d %d\n", seed, i)
}

// buildRequests schedules the timed requests of one run and builds the
// base bodies they use.
func buildRequests(w workload, n int, seed int64) ([]request, [][]byte, error) {
	order := schedule(w, n, seed)
	used := 0
	for _, base := range order {
		used = max(used, base+1)
	}
	corpus, err := w.corpus(seed, used)
	if err != nil {
		return nil, nil, err
	}
	out := make([]request, n)
	for i, base := range order {
		r := request{i: i, base: base}
		if !w.dup {
			r.nonce = nonceLine(seed, i)
		}
		r.key = server.IdempotencyKey(r.body(corpus))
		out[i] = r
	}
	return out, corpus, nil
}
