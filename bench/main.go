// Command racebench is the end-to-end benchmark of the racedetd trace
// service: one trace, from submission to the stored result, as a
// producer of traces sees it.
//
// It starts a fresh racedetd (stock flags, its own spool and state
// directory), drives it over the public HTTP API with one of four
// workloads, checks every answer against the graph engine's reference,
// and prints each metric as "workload metric value unit" followed by one
// JSON line. With --trace 1 it then replays the workload's first requests
// through each layer's public function, serially and in-process, and
// reports where the time and allocations go layer by layer.
//
// Usage (from the repository root; bench/run.sh builds both binaries):
//
//	bash bench/run.sh --workload mix-stream --seed 1 --seconds 15 --trace 0
//
// Exit status: 0 for a run whose answers are all right, 1 for a wrong
// answer or a setup failure, 2 for bad flags, 3 when the memory guard
// aborted the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"droidracer/internal/server"
)

const (
	exitWrong = 1
	exitUsage = 2
	exitGuard = 3
)

// maxLateMS is the generator lateness (p99) beyond which an open-loop
// run warns that its latencies include the generator's own delay. The
// run still counts: latencies start at the due time, so lateness can only
// make them worse, and on a shared host a single scheduler stall puts p99
// past any fixed limit.
const maxLateMS = 5

// setupPause separates the daemon starts that setup_s is the median of.
const setupPause = 150 * time.Millisecond

// config is one benchmark run.
type config struct {
	w        workload
	seed     int64
	seconds  float64
	requests int // timed requests; 0 means w.requestCount(seconds)
	traced   bool
	racedetd string
	workdir  string // scratch space; spans go to workdir/bench-trace.json
	setups   int    // daemon starts whose median is setup_s
}

// Metric kinds: end-to-end metrics are what a producer sees and are the
// JSON of an untraced run; layer metrics are the JSON of a traced run;
// info lines are printed only.
const (
	kindEndToEnd = iota
	kindLayer
	kindInfo
)

type metric struct {
	name  string
	unit  string
	value float64
	ok    bool   // false when the sample cannot support the number
	note  string // why not
	kind  int
}

// report is the outcome of one run.
type report struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	exit      int
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

// pct adds a latency percentile, or a refusal when the run has too few
// samples for it.
func (r *report) pct(name string, xs []float64, p float64, kind int) {
	v, ok := percentile(xs, p)
	m := metric{name: name, unit: "ms", value: v, ok: ok, kind: kind}
	if !ok {
		m.note = fmt.Sprintf("needs %d samples, has %d", int(float64(minBeyond)/(1-p)+0.5), len(xs))
	}
	r.add(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	runtime.GOMAXPROCS(2)
	name := flag.String("workload", "", "workload to run: mix-default, mix-stream, ingest-small, replay-dup")
	seed := flag.Int64("seed", 1, "seed for the corpus, the request order and the nonces")
	seconds := flag.Float64("seconds", 15, "run length; each workload sends a fixed number of requests per second of it")
	traced := flag.Int("trace", 0, "1 adds the traced per-layer ledger and reports its metrics")
	racedetd := flag.String("racedetd", ".bench_build/bin/racedetd", "racedetd binary to benchmark")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for daemon state and the span file")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("--trace must be 0 or 1 and --seconds positive")
		}
		fmt.Fprintln(os.Stderr, "racebench:", err)
		flag.Usage()
		os.Exit(exitUsage)
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		racedetd: *racedetd, workdir: *workdir, setups: 9,
	}
	// Every request has finished or failed well before this, so the run
	// exits within three minutes however the daemon behaves.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	rep, err := run(ctx, cfg, os.Stderr)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	os.Exit(rep.exit)
}

// run performs one benchmark run. An error means the run could not be
// set up; a wrong answer or a failed request is a valid report with a
// non-zero exit.
func run(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	w := cfg.w
	n := cfg.requests
	if n == 0 {
		n = w.requestCount(cfg.seconds)
	}
	if n < 1 {
		return nil, fmt.Errorf("%s sends no requests in %gs", w.name, cfg.seconds)
	}
	reqs, corpus, err := buildRequests(w, n, cfg.seed)
	if err != nil {
		return nil, err
	}
	bases := distinctBases(reqs)
	want, err := oracle(w, corpus, bases, cfg.seed)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Flush what earlier work left for the disk to do (a previous run's
	// deleted spool, say) so it does not land in this run's fsyncs.
	syscall.Sync()

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	// setup_s is the median over several starts: one start takes a few
	// milliseconds and varies with the page cache and the scheduler. The
	// pause between starts spreads them over more than a second of the
	// host's state; back to back, all nine caught the same moment and
	// their median moved with it from run to run.
	var setups []float64
	for k := 1; k < cfg.setups; k++ {
		d, err := startDaemon(ctx, cfg.racedetd, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		d.stop()
		hc.CloseIdleConnections()
		time.Sleep(setupPause)
	}
	d, err := startDaemon(ctx, cfg.racedetd, filepath.Join(dir, "daemon"), hc)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d.setup.Seconds())
	defer d.stop()

	loadCtx, abort := context.WithCancel(ctx)
	defer abort()
	smp := startSampler(d.pid(), abort)
	c := &client{hc: hc, base: "http://" + d.addr, engine: w.engine, corpus: corpus}
	m, err := drive(loadCtx, c, w, reqs, bases, want, d.pid())
	tripped := smp.stop()
	d.stop()
	if err != nil {
		return nil, err
	}

	rep := &report{workload: w.name, traced: cfg.traced, correct: true, attempted: len(m.outs)}
	var acks, dones, lates []float64
	replays := 0
	for _, o := range m.outs {
		switch {
		case o.failed():
			if rep.failed < 5 {
				fmt.Fprintf(log, "racebench: %s request failed: %s\n", w.name, o.fail)
			}
			rep.failed++
		case o.wrong != "":
			if rep.correct {
				fmt.Fprintf(log, "racebench: %s wrong answer: %s\n", w.name, o.wrong)
			}
			rep.correct = false
		}
		if o.acked {
			acks = append(acks, ms(o.ack))
		}
		if o.finished {
			dones = append(dones, ms(o.done))
		}
		if o.replay {
			replays++
		}
		lates = append(lates, ms(o.late))
	}
	done := len(dones)
	win := window(m.outs)

	rep.add(metric{name: "setup_s", unit: "s", value: median(setups), ok: true})
	rep.pct("ack_p50_ms", acks, 0.50, kindEndToEnd)
	rep.pct("ack_p90_ms", acks, 0.90, kindInfo)
	rep.pct("done_p50_ms", dones, 0.50, kindEndToEnd)
	rep.pct("done_p90_ms", dones, 0.90, kindEndToEnd)
	rep.pct("done_p99_ms", dones, 0.99, kindInfo)
	perJob := func(x float64) float64 {
		if done == 0 {
			return 0
		}
		return x / float64(done)
	}
	rep.add(metric{name: "jobs_per_s", unit: "1/s", value: float64(done) / win.Seconds(), ok: win > 0})
	rep.add(metric{name: "cpu_ms_per_job", unit: "ms", value: perJob(ms(m.cpu)), ok: done > 0})
	rep.add(metric{name: "peak_rss_mb", unit: "MB", value: float64(m.hwm) / 1024, ok: true})
	rep.add(metric{name: "failed_ratio", unit: "ratio", value: float64(rep.failed) / float64(len(m.outs)), ok: true, kind: kindInfo})
	if w.outstanding == 0 {
		late := quantile(lates, 0.99)
		rep.add(metric{name: "gen_late_p99_ms", unit: "ms", value: late, ok: true, kind: kindInfo})
		if late > maxLateMS {
			fmt.Fprintf(log, "racebench: warning: generator ran %.2f ms late at p99 (over %d ms); its latencies include that delay\n", late, maxLateMS)
		}
	}
	rep.add(metric{name: "jobs.retained_mb_per_job", unit: "MB", value: perJob(float64(m.hwm-m.rss0) / 1024), ok: done > 0, kind: kindLayer})
	rep.add(metric{name: "server.replay_hit_ratio", unit: "ratio", value: float64(replays) / float64(len(m.outs)), ok: true, kind: kindLayer})

	if tripped {
		fmt.Fprintf(log, "racebench: daemon passed the %d MiB memory guard; run aborted\n", memoryGuardKB>>10)
		rep.exit = exitGuard
	}
	if cfg.traced && rep.exit == 0 {
		lat := latencies{ackP50: median(acks), doneP50: median(dones)}
		lat.freshAckP50, lat.freshDoneP50 = lat.ackP50, lat.doneP50
		var origs []int
		if w.dup {
			origs = bases
			lat.freshAckP50, lat.freshDoneP50 = median(m.origAcks), median(m.origDones)
		}
		layerMs, wrong, err := runLedger(w, cfg.seed, corpus, origs, reqs, want, lat,
			filepath.Join(dir, "ledger"), filepath.Join(cfg.workdir, "bench-trace.json"))
		if err != nil {
			return nil, err
		}
		for _, lm := range layerMs {
			lm.kind = kindLayer
			rep.add(lm)
		}
		for _, s := range wrong {
			fmt.Fprintln(log, "racebench:", s)
			rep.correct = false
		}
	}
	if !rep.correct && rep.exit == 0 {
		rep.exit = exitWrong
	}
	return rep, nil
}

// measurement is what one run observed of the daemon.
type measurement struct {
	outs                []outcome
	origAcks, origDones []float64     // replay-dup's originals, in ms
	cpu                 time.Duration // daemon CPU time over the window
	rss0, hwm           int64         // KiB: resident at the window's start, high-water mark at its end
}

// drive submits replay-dup's originals (each base once, awaited, before
// timing), then runs the timed requests, reading the daemon's CPU time
// and memory from /proc around them.
func drive(ctx context.Context, c *client, w workload, reqs []request, bases []int, want map[int]answer, pid int) (*measurement, error) {
	m := &measurement{}
	if w.dup {
		for _, b := range bases {
			r := request{i: b, base: b, key: server.IdempotencyKey(c.corpus[b])}
			o := c.do(ctx, r, time.Now(), want[b])
			if o.failed() || o.wrong != "" {
				return nil, fmt.Errorf("original of %s round %d: %s%s", want[b].App, want[b].Round, o.fail, o.wrong)
			}
			m.origAcks = append(m.origAcks, ms(o.ack))
			m.origDones = append(m.origDones, ms(o.done))
		}
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	if m.rss0, err = procStatusKB(pid, "VmRSS"); err != nil {
		return nil, err
	}
	if w.outstanding > 0 {
		m.outs = closedLoop(ctx, c, reqs, want, w.outstanding)
	} else {
		m.outs = openLoop(ctx, c, reqs, want, w.perSecond)
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.hwm, err = procStatusKB(pid, "VmHWM"); err != nil {
		return nil, err
	}
	return m, nil
}

// print writes one "workload metric value unit" line per metric, then the
// JSON result line: the end-to-end metrics of an untraced run or the layer
// metrics of a traced one.
func (r *report) print(out io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	want := kindEndToEnd
	if r.traced {
		want = kindLayer
	}
	js := make(map[string]value)
	for _, m := range r.metrics {
		if !m.ok {
			fmt.Fprintf(out, "%s %s n/a %s (%s)\n", r.workload, m.name, m.unit, m.note)
			continue
		}
		fmt.Fprintf(out, "%s %s %.6g %s\n", r.workload, m.name, m.value, m.unit)
		if m.kind == want {
			js[m.name] = value{m.value, m.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, js})
	fmt.Fprintln(out, string(line))
}
