package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"bsmp/internal/serve"
)

// newClient is the load generator's HTTP client: one process, at most
// conns connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// result is one completed request.
type result struct {
	op     op
	lat    time.Duration // from the due time (open loop) or the send (closed)
	late   time.Duration // how late the generator sent it (open loop)
	status int
	err    error
	run    *serve.RunResponse
	rows   []serve.SweepRow
	rowLat []time.Duration // each row's arrival, from the send
	sum    *serve.SweepSummary
}

// ok reports whether the request was answered correctly within limit.
func (r *result) ok(limit time.Duration) bool {
	if r.err != nil || r.status != http.StatusOK || r.lat > limit {
		return false
	}
	if r.op.sweep != nil {
		return r.sum != nil && r.sum.Done && r.sum.Errors == 0 && len(r.rows) == r.sum.Points
	}
	return r.op.get != "" || r.run != nil
}

// do sends o to the daemon at base and reads the whole answer.
func do(ctx context.Context, c *http.Client, base string, o op) *result {
	r := &result{op: o}
	var req *http.Request
	switch {
	case o.get != "":
		req, r.err = http.NewRequestWithContext(ctx, http.MethodGet, base+o.get, nil)
	default:
		path, body := "/v1/run", any(o.run)
		if o.sweep != nil {
			path, body = "/v1/sweep", o.sweep
		}
		var b []byte
		if b, r.err = json.Marshal(body); r.err == nil {
			req, r.err = http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(b))
		}
	}
	if r.err != nil {
		return r
	}
	sent := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	switch {
	case resp.StatusCode != http.StatusOK:
		b, _ := io.ReadAll(resp.Body)
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	case o.sweep != nil:
		r.err = readSweep(resp.Body, sent, r)
	case o.run != nil:
		// Read to EOF so the connection is reused.
		var b []byte
		if b, r.err = io.ReadAll(resp.Body); r.err == nil {
			r.run = new(serve.RunResponse)
			r.err = json.Unmarshal(b, r.run)
		}
	default:
		_, r.err = io.Copy(io.Discard, resp.Body)
	}
	return r
}

// readSweep reads an NDJSON sweep stream: rows, then one summary line.
func readSweep(body io.Reader, sent time.Time, r *result) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("sweep line: %w", err)
		}
		if probe.Done != nil {
			r.sum = new(serve.SweepSummary)
			return json.Unmarshal(line, r.sum)
		}
		var row serve.SweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("sweep row: %w", err)
		}
		r.rows = append(r.rows, row)
		r.rowLat = append(r.rowLat, time.Since(sent))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("sweep stream ended without a summary")
}

// openLoopRun sends every scheduled request at its due time, whether or
// not earlier ones have completed, and times each from its due time.
func openLoopRun(ctx context.Context, c *http.Client, base string, next func() (op, bool)) []*result {
	start := time.Now()
	var (
		mu  sync.Mutex
		out []*result
		wg  sync.WaitGroup
	)
	for {
		o, ok := next()
		if !ok {
			break
		}
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		late := time.Since(due)
		wg.Add(1)
		go func(o op, due time.Time, late time.Duration) {
			defer wg.Done()
			r := do(ctx, c, base, o)
			r.lat, r.late = time.Since(due), late
			mu.Lock()
			out = append(out, r)
			mu.Unlock()
		}(o, due, late)
	}
	wg.Wait()
	return out
}

// closedLoopRun is one client sending its next request when the previous
// one completes. It stops at the first multiple of group requests after
// seconds have passed; after, if set, sees each result outside the timed
// interval.
func closedLoopRun(ctx context.Context, c *http.Client, base string, next func() (op, bool), seconds float64, group int, after func(*result) error) ([]*result, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var out []*result
	for i := 0; ; i++ {
		if i%group == 0 && !time.Now().Before(deadline) {
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		o, _ := next()
		t0 := time.Now()
		r := do(ctx, c, base, o)
		r.lat = time.Since(t0)
		out = append(out, r)
		if after != nil {
			if err := after(r); err != nil {
				return out, err
			}
		}
	}
}

// getJSON decodes GET base+path into v.
func getJSON(ctx context.Context, c *http.Client, base, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
