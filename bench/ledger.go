package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"droidracer/internal/core"
	"droidracer/internal/hb"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/race"
	"droidracer/internal/semantics"
	"droidracer/internal/sentinel"
	"droidracer/internal/server"
	"droidracer/internal/storage"
	"droidracer/internal/stream"
	"droidracer/internal/trace"
)

// The layers of one submission's path through racedetd, in pipeline
// order. Each measured layer is one call to the package's public function,
// made from the ledger below exactly as the daemon makes it; server.http
// and jobs.queue_wait are what the daemon spends outside those calls,
// derived from the untraced run's latencies.
const (
	layerKey        = "server.key"          // server.IdempotencyKey
	layerEstimate   = "sentinel.estimate"   // sentinel.EstimateBytes
	layerSpoolWrite = "storage.spool_write" // write, fsync, rename, journal.SyncDir
	layerHTTP       = "server.http"         // derived: ack minus the layers above
	layerSpoolRead  = "storage.spool_read"  // read the spooled body back
	layerVerify     = "storage.verify"      // storage.VerifyBody
	layerParse      = "trace.parse"         // trace.ParseBytes
	layerValidate   = "semantics.validate"  // semantics.ValidateInferred
	layerAnnotate   = "trace.annotate"      // trace.Analyze
	layerReplay     = "stream.replay"       // stream.Run
	layerBuild      = "hb.build"            // hb.Build
	layerScan       = "race.scan"           // race.Detector.DetectDeduped
	layerDigest     = "jobs.digest"         // jobs.ResultDigest
	layerAppend     = "journal.append"      // AppendSeq + Sync
	layerQueue      = "jobs.queue_wait"     // derived: done minus ack minus the run layers
)

// layerDef places a layer on the acknowledgement path (before the 202)
// or the run path (after it), and says whether the ledger measures it or
// derives it.
type layerDef struct {
	name    string
	ack     bool
	derived bool
}

var layers = []layerDef{
	{name: layerKey, ack: true},
	{name: layerEstimate, ack: true},
	{name: layerSpoolWrite, ack: true},
	{name: layerHTTP, ack: true, derived: true},
	{name: layerSpoolRead},
	{name: layerVerify},
	{name: layerParse},
	{name: layerValidate},
	{name: layerAnnotate},
	{name: layerReplay},
	{name: layerBuild},
	{name: layerScan},
	{name: layerDigest},
	{name: layerAppend},
	{name: layerQueue, derived: true},
}

// Root span names. A "request" is one timed request of the workload, an
// "original" one of replay-dup's first submissions (made before timing
// starts), and a "crosscheck" the engine the workload does not use, run
// once per distinct base body so every layer has a number and the two
// engines are checked against each other.
const (
	rootRequest    = "request"
	rootOriginal   = "original"
	rootCrosscheck = "crosscheck"
)

// span is one recorded interval. Root spans have Parent 0; Request is the
// request index under a "request" root and the base index otherwise.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes is runtime.MemStats.TotalAlloc's change over the call.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Ops is the parsed trace's length, on trace.parse spans.
	Ops int `json:"ops,omitempty"`
}

// tracer records spans in memory. With on false every call is a plain
// call, which is how the ledger measures its own overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Request: req, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(idx int) {
	if idx >= 0 {
		t.spans[idx].EndNS = int64(time.Since(t.t0))
	}
}

// layer runs fn under a child span of root. The allocation counters are
// read outside the timed interval.
func (t *tracer) layer(root int, name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m1)
	r := t.spans[root]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: r.ID, Name: name, Request: r.Request,
		StartNS: int64(start), EndNS: int64(end), AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	return err
}

// ledger replays submissions serially through the layer functions.
type ledger struct {
	w       workload
	tr      *tracer
	spool   string
	journal *journal.Writer
	wrong   []string
}

// writeDurable is the daemon's spool write: a hidden temp file, fsync'd,
// renamed into place, then the directory fsync'd.
func writeDurable(path string, body []byte) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return journal.SyncDir(filepath.Dir(path))
}

// fresh takes one new body through every layer, as the daemon does for a
// submission it has not seen.
func (l *ledger) fresh(rootName string, id int, body []byte, want answer) error {
	t := l.tr
	r := t.begin(rootName, id)
	defer t.end(r)
	var key string
	t.layer(r, layerKey, func() error { key = server.IdempotencyKey(body); return nil })
	if err := t.layer(r, layerEstimate, func() error { _, err := sentinel.EstimateBytes(body); return err }); err != nil {
		return err
	}
	name := key + ".trace"
	path := filepath.Join(l.spool, name)
	if err := t.layer(r, layerSpoolWrite, func() error { return writeDurable(path, body) }); err != nil {
		return fmt.Errorf("spool write: %w", err)
	}
	var got []byte
	if err := t.layer(r, layerSpoolRead, func() (err error) { got, err = os.ReadFile(path); return err }); err != nil {
		return fmt.Errorf("spool read: %w", err)
	}
	if err := t.layer(r, layerVerify, func() error { return storage.VerifyBody(name, got) }); err != nil {
		return err
	}
	var tr *trace.Trace
	if err := t.layer(r, layerParse, func() (err error) { tr, err = trace.ParseBytes(got); return err }); err != nil {
		return err
	}
	if r >= 0 {
		t.spans[len(t.spans)-1].Ops = tr.Len()
	}
	tr = tr.WithoutCancelled()
	if err := t.layer(r, layerValidate, func() error {
		if i, err := semantics.ValidateInferred(tr); err != nil {
			return fmt.Errorf("invalid at op %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return err
	}
	var info *trace.Info
	if err := t.layer(r, layerAnnotate, func() (err error) { info, err = trace.Analyze(tr); return err }); err != nil {
		return err
	}
	races, err := l.engine(r, l.w.engine, info)
	if err != nil {
		return err
	}
	var digest string
	t.layer(r, layerDigest, func() error { digest = jobs.ResultDigest(&core.Result{Races: races}); return nil })
	entry := jobs.JobEntry{Name: name, Mode: "full", Attempts: 1, Races: len(races), Digest: digest}
	if err := t.layer(r, layerAppend, func() error {
		if _, err := l.journal.AppendSeq("job", entry); err != nil {
			return err
		}
		return l.journal.Sync()
	}); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.check(want, len(races), digest, "")
	return nil
}

// engine runs the analysis backend under root: the stream replay, or the
// graph build followed by the deduplicated race scan.
func (l *ledger) engine(root int, engine string, info *trace.Info) ([]race.Race, error) {
	t := l.tr
	var races []race.Race
	if engine == core.EngineStream {
		err := t.layer(root, layerReplay, func() error {
			out, err := stream.Run(info, stream.Options{HB: hb.DefaultConfig(), Dedup: true}, nil)
			if err == nil {
				races = out.Races
			}
			return err
		})
		return races, err
	}
	var g *hb.Graph
	t.layer(root, layerBuild, func() error { g = hb.Build(info, hb.DefaultConfig()); return nil })
	t.layer(root, layerScan, func() error { races = race.NewDetector(g).DetectDeduped(); return nil })
	return races, nil
}

func (l *ledger) check(want answer, races int, digest, via string) {
	if races != want.Races || digest != want.Digest {
		l.wrong = append(l.wrong, fmt.Sprintf("ledger%s: %s round %d: got %d races, digest %s; want %d races, digest %s",
			via, want.App, want.Round, races, digest, want.Races, want.Digest))
	}
}

// pass runs the ledger once over replay-dup's originals (if any) and the
// given requests, in a fresh spool and journal under dir, and returns its
// wall time.
func (l *ledger) pass(dir string, corpus [][]byte, origs []int, reqs []request, want map[int]answer) (time.Duration, error) {
	l.spool = filepath.Join(dir, "spool")
	if err := os.MkdirAll(l.spool, 0o755); err != nil {
		return 0, err
	}
	w, err := journal.Create(filepath.Join(dir, "ledger.journal"))
	if err != nil {
		return 0, err
	}
	l.journal = w
	t0 := time.Now()
	for _, b := range origs {
		if err := l.fresh(rootOriginal, b, corpus[b], want[b]); err != nil {
			w.Close()
			return 0, err
		}
	}
	for _, r := range reqs {
		body := r.body(corpus)
		if r.dup() {
			// A duplicate of completed work costs the daemon one hash and
			// an index lookup before the reply.
			root := l.tr.begin(rootRequest, r.i)
			l.tr.layer(root, layerKey, func() error { server.IdempotencyKey(body); return nil })
			l.tr.end(root)
			continue
		}
		if err := l.fresh(rootRequest, r.i, body, want[r.base]); err != nil {
			w.Close()
			return 0, err
		}
	}
	wall := time.Since(t0)
	return wall, w.Close()
}

// crosscheck runs the engine the workload does not use on each base, under
// "crosscheck" roots, and checks it against the reference too.
func (l *ledger) crosscheck(corpus [][]byte, bases []int, want map[int]answer) error {
	other := core.EngineStream
	if l.w.engine == core.EngineStream {
		other = core.EngineGraph
	}
	for _, b := range bases {
		tr, err := trace.ParseBytes(corpus[b])
		if err != nil {
			return err
		}
		info, err := trace.Analyze(tr.WithoutCancelled())
		if err != nil {
			return err
		}
		root := l.tr.begin(rootCrosscheck, b)
		races, err := l.engine(root, other, info)
		l.tr.end(root)
		if err != nil {
			return err
		}
		l.check(want[b], len(races), jobs.ResultDigest(&core.Result{Races: races}), " "+other)
	}
	return nil
}

// latencies are the untraced run's medians the derived layers close
// against: the timed requests' ack and done, and for replay-dup the
// originals' (the only submissions there that reach the run path).
type latencies struct {
	ackP50, doneP50           float64
	freshAckP50, freshDoneP50 float64
}

// layerMetrics turns the spans into per-layer numbers: for each layer its
// p50 self time and allocation wherever it ran, and its share of done_p50
// on the timed requests' path (0 for a layer that path does not take).
func layerMetrics(w workload, spans []span, lat latencies) []metric {
	roots := make(map[int]string)
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.ID] = s.Name
		}
	}
	// freshRoot holds the submissions that took the run path.
	freshRoot := rootRequest
	if w.dup {
		freshRoot = rootOriginal
	}
	ms := make(map[string][]float64)
	kb := make(map[string][]float64)
	onPath := make(map[string]bool)
	onFresh := make(map[string]bool)
	var kops []float64
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		ms[s.Name] = append(ms[s.Name], d)
		kb[s.Name] = append(kb[s.Name], float64(s.AllocBytes)/1024)
		root := roots[s.Parent]
		onPath[s.Name] = onPath[s.Name] || root == rootRequest
		onFresh[s.Name] = onFresh[s.Name] || root == freshRoot
		if s.Name == layerParse && d > 0 {
			kops = append(kops, float64(s.Ops)/1000/d)
		}
	}
	p50 := make(map[string]float64)
	for name, xs := range ms {
		p50[name] = median(xs)
	}
	var ackSum, runSum float64
	for _, def := range layers {
		switch {
		case def.derived:
		case def.ack && onPath[def.name]:
			ackSum += p50[def.name]
		case !def.ack && onFresh[def.name]:
			runSum += p50[def.name]
		}
	}
	p50[layerHTTP] = lat.ackP50 - ackSum
	onPath[layerHTTP] = true
	p50[layerQueue] = lat.freshDoneP50 - lat.freshAckP50 - runSum
	onPath[layerQueue] = !w.dup

	var out []metric
	for _, def := range layers {
		v := p50[def.name]
		out = append(out, metric{name: def.name + ".ms_p50", unit: "ms", value: v, ok: def.derived || len(ms[def.name]) > 0})
		if !def.derived {
			out = append(out, metric{name: def.name + ".alloc_kb_p50", unit: "KiB", value: median(kb[def.name]), ok: len(kb[def.name]) > 0})
		}
		share := 0.0
		if onPath[def.name] && lat.doneP50 > 0 {
			share = v / lat.doneP50
		}
		out = append(out, metric{name: def.name + ".share", unit: "ratio", value: share, ok: true})
		if def.name == layerParse {
			out = append(out, metric{name: "trace.parse.kops_per_ms", unit: "kops/ms", value: median(kops), ok: len(kops) > 0})
		}
	}
	return out
}

// runLedger replays the first requests of the workload serially (after
// replay-dup's originals), traced and then untraced, cross-checks the
// other engine, writes the spans to tracePath, and returns the per-layer
// metrics plus any wrong answers.
func runLedger(w workload, seed int64, corpus [][]byte, origs []int, reqs []request, want map[int]answer,
	lat latencies, dir, tracePath string) ([]metric, []string, error) {
	const maxLedger = 200
	if len(reqs) > maxLedger {
		reqs = reqs[:maxLedger]
	}
	traced := &ledger{w: w, tr: &tracer{on: true, t0: time.Now()}}
	tracedWall, err := traced.pass(filepath.Join(dir, "traced"), corpus, origs, reqs, want)
	if err != nil {
		return nil, nil, fmt.Errorf("traced ledger: %w", err)
	}
	plain := &ledger{w: w, tr: &tracer{}}
	plainWall, err := plain.pass(filepath.Join(dir, "plain"), corpus, origs, reqs, want)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced ledger: %w", err)
	}
	bases := origs
	if !w.dup {
		bases = distinctBases(reqs)
	}
	if err := traced.crosscheck(corpus, bases, want); err != nil {
		return nil, nil, fmt.Errorf("crosscheck: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, traced.tr.spans})
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(tracePath, data, 0o644); err != nil {
		return nil, nil, err
	}
	out := layerMetrics(w, traced.tr.spans, lat)
	out = append(out, metric{name: "trace_overhead_pct", unit: "%", ok: true,
		value: 100 * (tracedWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()})
	return out, append(traced.wrong, plain.wrong...), nil
}
