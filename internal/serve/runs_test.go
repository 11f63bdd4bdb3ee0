package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bsmp"
	"bsmp/internal/obs"
)

func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", path, err, w.Body)
		}
	}
	return w
}

// TestRunRegistryEndToEnd drives the acceptance path: a real run
// through /v1/run, its run_id joined to the full /v1/runs/{id} record,
// whose phase durations telescope to Time+PrepTime, and an SSE
// subscriber joining at terminal state seeing snapshot + terminal
// event.
func TestRunRegistryEndToEnd(t *testing.T) {
	s := New(Config{})
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("run status = %d; body: %s", w.Code, w.Body)
	}
	resp := decodeRun(t, w)
	if resp.RunID == "" {
		t.Fatal("run response missing run_id")
	}

	var rec obs.RunInfo
	if w := getJSON(t, s.Handler(), "/v1/runs/"+resp.RunID, &rec); w.Code != http.StatusOK {
		t.Fatalf("record status = %d; body: %s", w.Code, w.Body)
	}
	if rec.State != obs.RunDone || rec.Source != "run" || rec.Scheme != "multi" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Time != resp.Time || rec.PrepTime != resp.PrepTime {
		t.Fatalf("record times (%v, %v) != response (%v, %v)", rec.Time, rec.PrepTime, resp.Time, resp.PrepTime)
	}
	if rec.Vertices <= 0 {
		t.Fatalf("record vertices = %d, want > 0", rec.Vertices)
	}
	if len(rec.Ledger) == 0 {
		t.Fatal("record ledger empty")
	}
	if rec.QueueMS < 0 || rec.WallMS <= 0 {
		t.Fatalf("record timings queue=%v wall=%v", rec.QueueMS, rec.WallMS)
	}
	// Phase virtual times telescope to the full makespan, exactly like
	// the response's own breakdown.
	if len(rec.PhaseTimes) == 0 {
		t.Fatal("record has no phase summary")
	}
	var sum float64
	for _, ph := range rec.PhaseTimes {
		sum += ph.VTime
	}
	full := resp.Time + resp.PrepTime
	if math.Abs(sum-full) > 1e-9*full {
		t.Errorf("phase vtimes sum to %v, want %v", sum, full)
	}
	// The full record carries the span tree even though the run was not
	// requested with ?trace=1 — the flight recorder's own tracer fed it.
	if len(rec.Trace) == 0 || !strings.HasPrefix(rec.Trace[0].Name, "scheme:") {
		t.Fatalf("record trace = %+v, want scheme root", rec.Trace)
	}

	// Listings know the run, without the trace payload.
	var list RunsResponse
	getJSON(t, s.Handler(), "/v1/runs?state=done", &list)
	if list.Total != 1 || len(list.Runs) != 1 || list.Runs[0].ID != resp.RunID {
		t.Fatalf("listing = %+v", list)
	}
	if list.Runs[0].Trace != nil {
		t.Fatal("listing leaked a span tree")
	}

	// A subscriber joining after completion gets the snapshot and the
	// terminal event immediately, then the stream closes.
	events := readSSE(t, s, "/v1/runs/"+resp.RunID+"/events")
	if len(events) != 2 || events[0].name != "snapshot" || events[1].name != "done" {
		t.Fatalf("terminal-join events = %+v", events)
	}
	if !strings.Contains(events[1].data, `"state":"done"`) {
		t.Fatalf("terminal event payload = %s", events[1].data)
	}

	// A cached repeat mints no new record and credits the original.
	w2 := postRun(t, s.Handler(), validRun)
	resp2 := decodeRun(t, w2)
	if !resp2.Cached || resp2.RunID != resp.RunID {
		t.Fatalf("cached repeat run_id = %q cached=%t, want original %q", resp2.RunID, resp2.Cached, resp.RunID)
	}
	var rec2 obs.RunInfo
	getJSON(t, s.Handler(), "/v1/runs/"+resp.RunID, &rec2)
	if rec2.CacheHits != 1 {
		t.Fatalf("record cache_hits = %d, want 1", rec2.CacheHits)
	}
}

// TestRegistryGoldenBitIdentical extends the golden virtual-time pin to
// the registry path: with the registry (and its always-on record
// tracer) live, the served times must match the engine goldens bit for
// bit — registry sampling is read-only by construction.
func TestRegistryGoldenBitIdentical(t *testing.T) {
	s := New(Config{})
	w := postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 16, "steps": 16}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", w.Code, w.Body)
	}
	resp := decodeRun(t, w)
	const goldenTime = 79686.0625
	const goldenPrep = 45232
	if resp.Time != goldenTime {
		t.Errorf("Time = %v, want golden %v bit-identical", resp.Time, goldenTime)
	}
	if resp.PrepTime != goldenPrep {
		t.Errorf("PrepTime = %v, want golden %v bit-identical", resp.PrepTime, goldenPrep)
	}
	// And the record agrees with the response exactly.
	var rec obs.RunInfo
	getJSON(t, s.Handler(), "/v1/runs/"+resp.RunID, &rec)
	if rec.Time != goldenTime || rec.PrepTime != goldenPrep {
		t.Errorf("record times (%v, %v), want goldens", rec.Time, rec.PrepTime)
	}
}

type sseEvent struct {
	name string
	data string
}

// readSSE drains a terminal-record event stream via the recorder (the
// handler returns on its own for completed runs).
func readSSE(t *testing.T, s *Server, path string) []sseEvent {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("SSE status = %d; body: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	return parseSSE(t, bufio.NewScanner(w.Body), nil)
}

// parseSSE consumes "event:/data:" line pairs. When stop is non-nil it
// returns as soon as stop(event) says so; otherwise it reads to EOF.
func parseSSE(t *testing.T, sc *bufio.Scanner, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			if stop != nil && stop(cur) {
				return events
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestRunEventsMidRunSubscriber joins the SSE stream while a run is
// executing: the subscriber must see the join snapshot, live progress
// events as the counters move, and the terminal event when the run
// lands.
func TestRunEventsMidRunSubscriber(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		prog := bsmp.ProgressFrom(ctx)
		if prog == nil {
			t.Error("stub saw no progress meter")
			return nil, context.Canceled
		}
		close(started)
		for i := 0; ; i++ {
			select {
			case <-release:
				return &RunResponse{Scheme: req.Scheme, Time: 7}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
				prog.Vertices.Add(17)
			}
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	runErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(validRun))
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("run status %d", resp.StatusCode)
			}
		}
		runErr <- err
	}()
	<-started

	// Find the live run's ID through the listing.
	var id string
	deadline := time.Now().Add(5 * time.Second)
	for id == "" && time.Now().Before(deadline) {
		var list RunsResponse
		getJSON(t, s.Handler(), "/v1/runs?state=running&source=run", &list)
		if len(list.Runs) > 0 {
			id = list.Runs[0].ID
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if id == "" {
		t.Fatal("live run never appeared in /v1/runs?state=running")
	}

	resp, err := http.Get(srv.URL + "/v1/runs/" + id + "/events?poll_ms=10")
	if err != nil {
		t.Fatalf("SSE GET: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// Read until one progress event has arrived, then release the run
	// and read to the terminal event.
	sawProgress := false
	events := parseSSE(t, sc, func(ev sseEvent) bool {
		if ev.name == "progress" {
			sawProgress = true
		}
		return sawProgress
	})
	if !sawProgress {
		t.Fatalf("stream ended without a progress event: %+v", events)
	}
	if events[0].name != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", events[0].name)
	}
	close(release)
	tail := parseSSE(t, sc, func(ev sseEvent) bool { return ev.name == "done" })
	if len(tail) == 0 || tail[len(tail)-1].name != "done" {
		t.Fatalf("no terminal done event: %+v", tail)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("run request failed: %v", err)
	}
}

// TestRunEventsWatcherDisconnectDoesNotCancelRun pins the observer
// contract against PR 4/PR 8 cancellation: dropping the SSE connection
// must not cancel the watched simulation.
func TestRunEventsWatcherDisconnectDoesNotCancelRun(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	cancelled := make(chan error, 1)
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		close(started)
		select {
		case <-release:
			return &RunResponse{Scheme: req.Scheme, Time: 1}, nil
		case <-ctx.Done():
			cancelled <- ctx.Err()
			return nil, ctx.Err()
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	runDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(validRun))
		if err != nil {
			t.Errorf("run request: %v", err)
			runDone <- nil
			return
		}
		runDone <- resp
	}()
	<-started
	var id string
	for i := 0; i < 500 && id == ""; i++ {
		var list RunsResponse
		getJSON(t, s.Handler(), "/v1/runs?state=running", &list)
		if len(list.Runs) > 0 {
			id = list.Runs[0].ID
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if id == "" {
		t.Fatal("live run never appeared")
	}

	// Open a watcher, read its join snapshot, then hang up.
	wctx, wcancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(wctx, http.MethodGet, srv.URL+"/v1/runs/"+id+"/events?poll_ms=10", nil)
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("SSE GET: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := wresp.Body.Read(buf); err != nil {
		t.Fatalf("SSE first byte: %v", err)
	}
	wcancel()
	wresp.Body.Close()

	// The run must still be live after the watcher is gone...
	select {
	case err := <-cancelled:
		t.Fatalf("watcher disconnect cancelled the run: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...and completes normally once released.
	close(release)
	resp := <-runDone
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status after watcher disconnect = %d", resp.StatusCode)
	}
	var rec obs.RunInfo
	getJSON(t, s.Handler(), "/v1/runs/"+id, &rec)
	if rec.State != obs.RunDone {
		t.Fatalf("record state = %q, want done", rec.State)
	}
}

// TestSweepRowsCarryRunID is the sweep/registry join regression: every
// executed row carries a run_id, and a repeated sweep serves cached
// rows that keep the ORIGINAL execution's ID with cached:true and
// credit its record's cache-hit counter.
func TestSweepRowsCarryRunID(t *testing.T) {
	s := New(Config{})
	body := `{"schemes": ["multi"], "d": 1, "n": [64], "p": [2, 4], "m": [4, 8], "steps": 16}`
	post := func() []SweepRow {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("sweep status = %d; body: %s", w.Code, w.Body)
		}
		rows, sum := decodeSweep(t, w.Body.String())
		if !sum.Done {
			t.Fatal("sweep summary not done")
		}
		return rows
	}

	first := post()
	ids := make(map[int]string)
	for _, row := range first {
		if row.Result == nil {
			t.Fatalf("row %d has no result", row.Index)
		}
		if row.Result.RunID == "" {
			t.Fatalf("row %d missing run_id", row.Index)
		}
		if row.Result.Cached {
			t.Fatalf("row %d cached on a cold sweep", row.Index)
		}
		ids[row.Index] = row.Result.RunID
	}

	second := post()
	for _, row := range second {
		if !row.Result.Cached {
			t.Fatalf("repeat row %d not cached", row.Index)
		}
		if row.Result.RunID != ids[row.Index] {
			t.Fatalf("repeat row %d run_id = %q, want original %q", row.Index, row.Result.RunID, ids[row.Index])
		}
	}
	// Each original record was credited once by the repeat sweep, and
	// its record is marked as a sweep execution.
	var rec obs.RunInfo
	getJSON(t, s.Handler(), "/v1/runs/"+ids[0], &rec)
	if rec.CacheHits != 1 || rec.Source != "sweep" {
		t.Fatalf("record after repeat sweep = %+v", rec)
	}
}

// TestRunsListingFiltersAndPagination exercises the /v1/runs query
// surface against a mix of terminal records.
func TestRunsListingFiltersAndPagination(t *testing.T) {
	s := New(Config{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		if req.N == 13 {
			return nil, fmt.Errorf("synthetic failure")
		}
		return &RunResponse{Scheme: req.Scheme, N: req.N, Time: float64(req.N)}, nil
	}
	for _, n := range []int{64, 128, 256} {
		w := postRun(t, s.Handler(), fmt.Sprintf(`{"scheme": "multi", "d": 1, "n": %d, "p": 4, "m": 4, "steps": 16}`, n))
		if w.Code != http.StatusOK {
			t.Fatalf("stub run status = %d", w.Code)
		}
	}
	if w := postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 13, "p": 1, "m": 4, "steps": 16}`); w.Code == http.StatusOK {
		t.Fatal("synthetic failure answered 200")
	}

	var all RunsResponse
	getJSON(t, s.Handler(), "/v1/runs", &all)
	if all.Total != 4 {
		t.Fatalf("total = %d, want 4", all.Total)
	}
	// Newest first: the failure is the most recent record.
	if all.Runs[0].State != obs.RunFailed || all.Runs[0].Error == "" {
		t.Fatalf("newest record = %+v, want the failure", all.Runs[0])
	}

	var done RunsResponse
	getJSON(t, s.Handler(), "/v1/runs?state=done", &done)
	if done.Total != 3 {
		t.Fatalf("done total = %d, want 3", done.Total)
	}

	var page RunsResponse
	getJSON(t, s.Handler(), "/v1/runs?state=done&limit=1&offset=1", &page)
	if page.Total != 3 || len(page.Runs) != 1 {
		t.Fatalf("page = %+v", page)
	}
	if page.Runs[0].ID != done.Runs[1].ID {
		t.Fatalf("offset page returned %q, want %q", page.Runs[0].ID, done.Runs[1].ID)
	}

	if w := getJSON(t, s.Handler(), "/v1/runs?limit=0", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("limit=0 status = %d, want 400", w.Code)
	}
	if w := getJSON(t, s.Handler(), "/v1/runs?offset=-1", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("offset=-1 status = %d, want 400", w.Code)
	}
	if w := getJSON(t, s.Handler(), "/v1/runs/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown record status = %d, want 404", w.Code)
	}
}

// TestRegistryDisabled covers -registry-cap < 0: runs still serve (no
// run_id), and the introspection endpoints answer structured 404s.
func TestRegistryDisabled(t *testing.T) {
	s := New(Config{RegistryCapacity: -1})
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("run status = %d", w.Code)
	}
	if resp := decodeRun(t, w); resp.RunID != "" {
		t.Fatalf("run_id = %q with registry disabled", resp.RunID)
	}
	for _, path := range []string{"/v1/runs", "/v1/runs/x", "/v1/runs/x/events"} {
		if w := getJSON(t, s.Handler(), path, nil); w.Code != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", path, w.Code)
		}
	}
}

// TestShedRunRecorded pins the shed lifecycle state: a run rejected by
// a full pool queue still leaves a terminal record.
func TestShedRunRecorded(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	block := make(chan struct{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		<-block
		return &RunResponse{Scheme: req.Scheme, Time: 1}, nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	go func() {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(validRun))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var list RunsResponse
		getJSON(t, s.Handler(), "/v1/runs?state=running", &list)
		if list.Total > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A distinct tuple cannot coalesce, cannot hit the cache, and finds
	// the one-worker pool occupied with no queue: 429, recorded as shed.
	w := postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 128, "p": 4, "m": 4, "steps": 16}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", w.Code, w.Body)
	}
	var shed RunsResponse
	getJSON(t, s.Handler(), "/v1/runs?state=shed", &shed)
	if shed.Total != 1 {
		t.Fatalf("shed records = %d, want 1", shed.Total)
	}
	if shed.Runs[0].Error == "" {
		t.Fatal("shed record carries no error")
	}
	close(block)
}

// counterNames lists the expvar name of every typed counter field.
func counterNames() []string {
	typ := reflect.TypeOf(counters{})
	names := make([]string, typ.NumField())
	for i := range names {
		names[i] = typ.Field(i).Tag.Get("expvar")
	}
	return names
}

// TestMetricsPromRegistrySeries checks the registry's Prometheus
// surface: active-run gauges, terminal-state counters, per-phase
// histograms, quantile gauges, and that every counter renders on both
// /metrics and /metrics.prom from boot.
func TestMetricsPromRegistrySeries(t *testing.T) {
	s := New(Config{})
	// From boot, before any increment: each counter field has a /metrics
	// key and a /metrics.prom series.
	var boot struct {
		Bsmp map[string]json.RawMessage `json:"bsmp"`
	}
	getJSON(t, s.Handler(), "/metrics", &boot)
	bootProm := httptest.NewRecorder()
	s.Handler().ServeHTTP(bootProm, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
	for _, name := range counterNames() {
		if name == "" {
			t.Fatal("counter field without an expvar tag")
		}
		if _, ok := boot.Bsmp[name]; !ok {
			t.Errorf("counter %q missing from /metrics at boot", name)
		}
		if !strings.Contains(bootProm.Body.String(), "bsmpd_"+name+" ") {
			t.Errorf("counter %q missing from /metrics.prom at boot", name)
		}
	}

	if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusOK {
		t.Fatalf("run status = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics.prom", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	body := w.Body.String()

	for _, want := range []string{
		"# TYPE bsmpd_runs_active gauge",
		`bsmpd_runs_completed_total{state="done"} 1`,
		`bsmpd_runs_completed_total{state="cancelled"} 0`,
		"# TYPE bsmpd_run_phase_seconds histogram",
		`bsmpd_run_phase_seconds_bucket{phase="`,
		`bsmpd_run_latency_seconds_quantile{q="0.5"} `,
		`bsmpd_run_latency_seconds_quantile{q="0.95"} `,
		`bsmpd_run_latency_seconds_quantile{q="0.99"} `,
		"bsmpd_registry_live_runs 0",
		"bsmpd_registry_retained_runs 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics.prom missing %q", want)
		}
	}
	// Empty histograms carry no quantile gauges (NaN would be noise).
	if strings.Contains(body, "bsmpd_theta_run_latency_seconds_quantile") {
		t.Error("empty theta histogram rendered quantile gauges")
	}
	for _, name := range counterNames() {
		if !strings.Contains(body, "bsmpd_"+name+" ") {
			t.Errorf("counter %q missing from metrics.prom", name)
		}
	}
}

// TestCounterFieldsIncremented fails when a counter field has no .Add(
// site in the package's non-test source: a declared counter nothing
// bumps is dead telemetry. (An increment of an undeclared counter does
// not compile.)
func TestCounterFieldsIncremented(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	typ := reflect.TypeOf(counters{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !strings.Contains(src.String(), "."+name+".Add(") {
			t.Errorf("counter field %s (%q) is never incremented", name, typ.Field(i).Tag.Get("expvar"))
		}
	}
}
