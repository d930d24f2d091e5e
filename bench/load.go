package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"droidracer/internal/server"
)

// producers is the number of simulated producer IDs sent as X-Client-ID.
// The daemon's stock token bucket allows each 10 submissions/s (burst
// 20); spreading requests over 64 IDs keeps it from being the bottleneck
// at every rate the workloads use without changing any daemon flag.
const producers = 64

// pollEvery is how often a submitted job's status is polled.
const pollEvery = time.Millisecond

// newHTTPClient returns the load generator's client: at most two
// connections to the daemon, matching the two CPUs the benchmark was
// calibrated on, so requests beyond two queue in the client and that wait
// counts in their latency.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// client submits to and polls one daemon.
type client struct {
	hc     *http.Client
	base   string // http://host:port
	engine string
	corpus [][]byte
}

// outcome is what one request saw. Durations count from the request's
// due time: for an open loop that is its slot in the schedule, so a
// stall in the daemon also delays the requests queued behind it.
type outcome struct {
	due      time.Time
	late     time.Duration // open loop: how late the generator sent it
	ack      time.Duration // until the 202 or 200 arrived
	done     time.Duration // until GET /v1/jobs/{id} reported done
	acked    bool
	finished bool
	replay   bool   // answered 200 done from the daemon's index
	fail     string // why the request failed; empty on success
	wrong    string // how the answer differs from the reference
}

func (o outcome) failed() bool { return !o.finished }

func (c *client) submit(ctx context.Context, r request) (*server.SubmitResponse, int, error) {
	body, size := r.reader(c.corpus)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", body)
	if err != nil {
		return nil, 0, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("Idempotency-Key", r.key)
	req.Header.Set("X-Client-ID", fmt.Sprintf("bench-%02d", r.i%producers))
	if c.engine != "" {
		req.Header.Set(server.EngineHeader, c.engine)
	}
	return c.roundTrip(req)
}

func (c *client) status(ctx context.Context, id string) (*server.SubmitResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, 0, err
	}
	return c.roundTrip(req)
}

func (c *client) roundTrip(req *http.Request) (*server.SubmitResponse, int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var sr server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decode %s reply: %w", req.URL.Path, err)
	}
	io.Copy(io.Discard, resp.Body) // let the connection be reused
	return &sr, resp.StatusCode, nil
}

// do sends one request, polls it to done, and checks the answer.
func (c *client) do(ctx context.Context, r request, due time.Time, want answer) outcome {
	o := outcome{due: due}
	resp, code, err := c.submit(ctx, r)
	o.ack = time.Since(due)
	switch {
	case err != nil:
		o.fail = err.Error()
		return o
	case code != http.StatusOK && code != http.StatusAccepted:
		o.fail = fmt.Sprintf("HTTP %d %s", code, resp.Reason)
		return o
	}
	o.acked = true
	o.replay = code == http.StatusOK && resp.Status == server.StatusDone
	for resp.Status != server.StatusDone {
		if resp.Status != server.StatusAccepted && resp.Status != server.StatusPending {
			o.fail = fmt.Sprintf("job %s %s %s", resp.Job, resp.Status, resp.Reason)
			return o
		}
		select {
		case <-ctx.Done():
			o.fail = "not done: " + ctx.Err().Error()
			return o
		case <-time.After(pollEvery):
		}
		id := resp.Job
		resp, code, err = c.status(ctx, id)
		if err != nil {
			o.fail = err.Error()
			return o
		}
		if code != http.StatusOK {
			o.fail = fmt.Sprintf("status of %s: HTTP %d %s", id, code, resp.Status)
			return o
		}
	}
	o.done = time.Since(due)
	o.finished = true
	o.wrong = want.mismatch(resp)
	return o
}

// mismatch describes how a done answer differs from the reference.
func (a answer) mismatch(resp *server.SubmitResponse) string {
	if resp.Mode != "full" || resp.Races != a.Races || resp.Digest != a.Digest {
		return fmt.Sprintf("%s round %d: got mode %s, %d races, digest %s; want full, %d races, digest %s",
			a.App, a.Round, resp.Mode, resp.Races, resp.Digest, a.Races, a.Digest)
	}
	return ""
}

// dueTimes is the open-loop schedule: request i is due at start + i/rate.
func dueTimes(start time.Time, n int, rate float64) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
	}
	return out
}

// openLoop sends every request at its due time whether or not earlier
// ones have finished, the way independent producers do.
func openLoop(ctx context.Context, c *client, reqs []request, want map[int]answer, rate float64) []outcome {
	outs := make([]outcome, len(reqs))
	due := dueTimes(time.Now(), len(reqs), rate)
	var wg sync.WaitGroup
	for i, r := range reqs {
		select {
		case <-ctx.Done():
			outs[i] = outcome{due: due[i], fail: "not sent: " + ctx.Err().Error()}
			continue
		case <-time.After(time.Until(due[i])):
		}
		late := time.Since(due[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := c.do(ctx, r, due[i], want[r.base])
			o.late = late
			outs[i] = o
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop keeps k requests outstanding: each client sends its next
// request the moment its previous one is done, the way callers that wait
// for their answer do. A request is due when its client becomes free.
func closedLoop(ctx context.Context, c *client, reqs []request, want map[int]answer, k int) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				outs[i] = c.do(ctx, reqs[i], time.Now(), want[reqs[i].base])
			}
		}()
	}
	wg.Wait()
	return outs
}

// window is the measured interval of a run: from the first request's due
// time to the last completion. Requests that never finished do not extend
// it; they are counted as failed instead.
func window(outs []outcome) time.Duration {
	var start, end time.Time
	for _, o := range outs {
		if start.IsZero() || o.due.Before(start) {
			start = o.due
		}
		if o.finished {
			if t := o.due.Add(o.done); t.After(end) {
				end = t
			}
		}
	}
	if end.IsZero() {
		return 0
	}
	return end.Sub(start)
}
