package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bsmp/internal/obs"
)

// This file is the run-introspection surface over the run registry:
//
//	GET /v1/runs              filterable, paginated listing (live runs
//	                          first, then the flight recorder's
//	                          completed tail, newest first)
//	GET /v1/runs/{id}         one full record, span tree included
//	GET /v1/runs/{id}/events  SSE stream of a run's lifecycle: join
//	                          snapshot, progress/phase events while it
//	                          executes, heartbeats through quiet
//	                          stretches, one terminal event named after
//	                          the final state
//
// The SSE watcher is an observer, never an owner: it polls read-only
// snapshots of the record and its progress atomics, and a watcher
// disconnect ends only the watch — the simulation keeps its own request
// context, per the PR 4/PR 8 cancellation contract (only the *run's*
// client, a deadline, or shutdown may cancel it).

// RunsResponse is the GET /v1/runs payload.
type RunsResponse struct {
	// Total counts records matching the filters before pagination.
	Total int `json:"total"`
	// Runs carries the page, newest first, traces omitted.
	Runs []obs.RunInfo `json:"runs"`
}

// RunEvent is the payload of progress/phase/heartbeat SSE events: the
// live counters, the innermost open span, and elapsed wall time.
type RunEvent struct {
	State    string  `json:"state"`
	Vertices int64   `json:"vertices"`
	Phases   int64   `json:"phases"`
	Span     string  `json:"span,omitempty"`
	WallMS   float64 `json:"wall_ms"`
}

func runEvent(info obs.RunInfo) RunEvent {
	return RunEvent{
		State: info.State, Vertices: info.Vertices, Phases: info.Phases,
		Span: info.Span, WallMS: info.WallMS,
	}
}

// registryDisabled answers the introspection endpoints when the server
// runs without a registry (-registry-cap < 0).
func (s *Server) registryDisabled(w http.ResponseWriter) bool {
	if s.registry != nil {
		return false
	}
	writeError(w, http.StatusNotFound, "registry", "run registry disabled (-registry-cap < 0)", nil)
	return true
}

// handleRuns serves GET /v1/runs?state=&scheme=&source=&limit=&offset=.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.registryDisabled(w) {
		return
	}
	q := r.URL.Query()
	stateF, schemeF, sourceF := q.Get("state"), q.Get("scheme"), q.Get("source")
	limit, err := queryInt(q.Get("limit"), 50)
	if err != nil || limit < 1 {
		writeError(w, http.StatusBadRequest, "param", "limit must be a positive integer", nil)
		return
	}
	if limit > 500 {
		limit = 500
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		writeError(w, http.StatusBadRequest, "param", "offset must be a non-negative integer", nil)
		return
	}

	resp := RunsResponse{Runs: []obs.RunInfo{}}
	for _, h := range s.registry.List() {
		info := h.Snapshot(false)
		if (stateF != "" && info.State != stateF) ||
			(schemeF != "" && info.Scheme != schemeF) ||
			(sourceF != "" && info.Source != sourceF) {
			continue
		}
		resp.Total++
		if resp.Total > offset && len(resp.Runs) < limit {
			resp.Runs = append(resp.Runs, info)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func queryInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// handleRunRecord serves GET /v1/runs/{id}: the full record, span tree
// included for completed runs.
func (s *Server) handleRunRecord(w http.ResponseWriter, r *http.Request) {
	if s.registryDisabled(w) {
		return
	}
	id := r.PathValue("id")
	h := s.registry.Get(id)
	if h == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no run %q: unknown ID, or the record aged out of the flight recorder", id), nil)
		return
	}
	writeJSON(w, http.StatusOK, h.Snapshot(true))
}

// Event-stream pacing bounds. The poll interval trades progress-event
// granularity against snapshot cost; the heartbeat keeps idle
// connections visibly alive through proxies.
const (
	minEventPollMS = 10
	maxEventPollMS = 5000
	defEventPollMS = 200

	minHeartbeatMS = 100
	defHeartbeatMS = 15000
)

// handleRunEvents serves GET /v1/runs/{id}/events?poll_ms=&heartbeat_ms=
// as a Server-Sent Events stream.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	if s.registryDisabled(w) {
		return
	}
	h := s.registry.Get(r.PathValue("id"))
	if h == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no run %q: unknown ID, or the record aged out of the flight recorder", r.PathValue("id")), nil)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "stream", "response writer cannot stream", nil)
		return
	}
	poll := clampQueryMS(r, "poll_ms", defEventPollMS, minEventPollMS, maxEventPollMS)
	heartbeat := clampQueryMS(r, "heartbeat_ms", defHeartbeatMS, minHeartbeatMS, 1<<20)
	s.ctr.RunEventsStreams.Add(1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, payload any) bool {
		b, err := json.Marshal(payload)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// Join snapshot first, so a subscriber always knows where the run
	// stands before the incremental events start.
	last := h.Snapshot(false)
	if !emit("snapshot", last) {
		return
	}
	terminal := func() bool {
		// The terminal event is named after the final state and carries
		// the full record minus the trace (fetch /v1/runs/{id} for it).
		fin := h.Snapshot(false)
		emit(fin.State, fin)
		return true
	}
	if h.Terminal() {
		terminal()
		return
	}

	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	lastEvent := time.Now()
	for {
		select {
		case <-r.Context().Done():
			// Watcher disconnected. Observer only: the run is NOT cancelled —
			// its own request context owns its lifetime.
			return
		case <-h.Done():
			terminal()
			return
		case <-ticker.C:
			cur := h.Snapshot(false)
			switch {
			// A span transition is a named phase boundary; the phase
			// *counter* moves at every recursion checkpoint, far too often
			// to be an event of its own, so it rides along in progress.
			case cur.Span != last.Span:
				if !emit("phase", runEvent(cur)) {
					return
				}
			case cur.Vertices != last.Vertices || cur.Phases != last.Phases || cur.State != last.State:
				if !emit("progress", runEvent(cur)) {
					return
				}
			case time.Since(lastEvent) >= heartbeat:
				if !emit("heartbeat", runEvent(cur)) {
					return
				}
			default:
				last = cur
				continue
			}
			lastEvent = time.Now()
			last = cur
		}
	}
}

// clampQueryMS parses an optional millisecond query parameter into a
// duration, clamped to [min, max].
func clampQueryMS(r *http.Request, name string, def, min, max int) time.Duration {
	v := def
	if raw := r.URL.Query().Get(name); raw != "" {
		if n, err := strconv.Atoi(raw); err == nil {
			v = n
		}
	}
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return time.Duration(v) * time.Millisecond
}
