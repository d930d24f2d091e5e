package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload scaled down to 16 requests, traced and
// side by side, against a freshly built racedetd, and checks that every
// answer matches the reference and every metric BENCHMARK.json names is
// printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs racedetd")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q; the program has %q", i, w.Name, workloads[i].name)
		}
	}

	dir := scratchDir(t)
	bin := filepath.Join(dir, "racedetd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/racedetd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build racedetd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := run(ctx, config{
				w: w, seed: 1, requests: 16, traced: true, racedetd: bin,
				workdir: filepath.Join(dir, w.name), setups: 1,
			}, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 || rep.exit != 0 {
				t.Errorf("correct=%v failed=%d exit=%d", rep.correct, rep.failed, rep.exit)
			}
			var out bytes.Buffer
			rep.print(&out)
			text := out.String()
			units := make(map[string]string)
			kinds := make(map[string]int)
			for _, m := range rep.metrics {
				units[m.name], kinds[m.name] = m.unit, m.kind
			}
			check := func(name, unit string, kind int) {
				if !strings.Contains(text, w.name+" "+name+" ") {
					t.Errorf("%s not printed", name)
				}
				if units[name] != unit || kinds[name] != kind {
					t.Errorf("%s has unit %q kind %d, BENCHMARK.json wants %q kind %d", name, units[name], kinds[name], unit, kind)
				}
			}
			for _, m := range bf.EndToEnd {
				check(m.Name, m.Unit, kindEndToEnd)
			}
			for _, m := range bf.PerLayer {
				check(m.Name, m.Unit, kindLayer)
			}
			nE2E, nLayer := 0, 0
			for _, k := range kinds {
				switch k {
				case kindEndToEnd:
					nE2E++
				case kindLayer:
					nLayer++
				}
			}
			if nE2E != len(bf.EndToEnd) || nLayer != len(bf.PerLayer) {
				t.Errorf("the program reports %d end-to-end and %d layer metrics; BENCHMARK.json names %d and %d",
					nE2E, nLayer, len(bf.EndToEnd), len(bf.PerLayer))
			}
			if _, err := os.Stat(filepath.Join(dir, w.name, "bench-trace.json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// scratchDir is a test directory on a memory file system when the machine
// has one: a run fsyncs and then deletes hundreds of spool files, and on a
// disk mounted with online discard each deletion costs tens of
// milliseconds.
func scratchDir(t *testing.T) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "racebench-"); err == nil {
			t.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return t.TempDir()
}
