package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// validSweep is a one-point grid whose canonical tuple is validRun's, so
// its row and a /v1/run of validRun share one flight key.
const validSweep = `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`

// waitFollowers blocks until n callers wait on an in-flight flight key.
func waitFollowers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.flight.mu.Lock()
		dups := 0
		for _, c := range s.flight.calls {
			dups += c.dups
		}
		s.flight.mu.Unlock()
		if dups >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers joined the flight", dups, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveEndpoint posts validRun to /v1/run, or its one-point twin
// validSweep to /v1/sweep, under ctx and returns the status and the
// answer's run_id. It reports failures with t.Error, so it may run on
// its own goroutine.
func serveEndpoint(t *testing.T, s *Server, ctx context.Context, endpoint string) (int, string) {
	body := validRun
	if endpoint == "sweep" {
		body = validSweep
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || ctx.Err() != nil {
		return w.Code, ""
	}
	var resp RunResponse
	if endpoint == "sweep" {
		var row SweepRow
		line, _, _ := strings.Cut(w.Body.String(), "\n")
		if err := json.Unmarshal([]byte(line), &row); err != nil || row.Result == nil {
			t.Errorf("sweep row %q: %v", line, err)
			return w.Code, ""
		}
		resp = *row.Result
	} else if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Errorf("run response %s: %v", w.Body, err)
	}
	return w.Code, resp.RunID
}

// A follower coalesced onto a leader whose client goes away, or whose
// deadline passes, must not inherit that outcome: while its own context
// is live it leads a fresh execution and gets its answer.
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	for _, tc := range []struct {
		name, leader string
		timeout      time.Duration // nonzero: the leader's deadline passes instead of a disconnect
	}{
		{"run leader disconnects", "run", 0},
		{"sweep leader disconnects", "sweep", 0},
		{"run leader deadline", "run", 600 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 2, RequestTimeout: tc.timeout})
			var calls atomic.Int64
			started := make(chan struct{})
			s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
				if calls.Add(1) == 1 {
					close(started)
					<-ctx.Done()
					return nil, ctx.Err()
				}
				return &RunResponse{Scheme: req.Scheme, Time: 1}, nil
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				serveEndpoint(t, s, ctx, tc.leader)
			}()
			<-started
			if tc.timeout != 0 {
				// Every /v1/run gets the same timeout, so starting the
				// follower half a timeout later leaves it that much time
				// to run after the leader's deadline passes.
				time.Sleep(tc.timeout / 2)
			}
			follower := make(chan *httptest.ResponseRecorder, 1)
			go func() { follower <- postRun(t, s.Handler(), validRun) }()
			waitFollowers(t, s, 1)
			if tc.timeout == 0 {
				cancel()
			}
			<-leaderDone
			w := <-follower
			if w.Code != http.StatusOK {
				t.Fatalf("follower status = %d, want 200; body: %s", w.Code, w.Body)
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("runScheme ran %d times, want 2 (cancelled leader, then the follower)", n)
			}
		})
	}
}

// A /v1/run and a /v1/sweep point with the same canonical tuple, in
// flight together, share one execution: runScheme runs once, both
// answers carry the same run_id, and the record names the leader's
// endpoint as its source.
func TestRunAndSweepCoalesce(t *testing.T) {
	for _, leader := range []string{"run", "sweep"} {
		t.Run("leader "+leader, func(t *testing.T) {
			s := New(Config{Workers: 2})
			var calls atomic.Int64
			started, release := make(chan struct{}), make(chan struct{})
			s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
				if calls.Add(1) == 1 {
					close(started)
				}
				<-release
				return &RunResponse{Scheme: req.Scheme, Time: 1}, nil
			}
			follower := "sweep"
			if leader == "sweep" {
				follower = "run"
			}
			ids := make(chan string, 2)
			answer := func(endpoint string) {
				code, id := serveEndpoint(t, s, context.Background(), endpoint)
				if code != http.StatusOK {
					t.Errorf("%s status = %d, want 200", endpoint, code)
				}
				ids <- id
			}
			go answer(leader)
			<-started
			go answer(follower)
			waitFollowers(t, s, 1)
			close(release)
			a, b := <-ids, <-ids
			if n := calls.Load(); n != 1 {
				t.Fatalf("runScheme ran %d times, want 1", n)
			}
			if a == "" || a != b {
				t.Fatalf("run_ids %q and %q, want one shared ID", a, b)
			}
			h := s.registry.Get(a)
			if h == nil {
				t.Fatalf("no record for %s", a)
			}
			if src := h.Snapshot(false).Source; src != leader {
				t.Fatalf("record source = %q, want the leader's %q", src, leader)
			}
		})
	}
}
