package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bsmp"
)

// This file is the /v1/sweep endpoint: server-side evaluation of a
// parameter grid — the processor-time tradeoff *surface* the paper is
// about, instead of one (scheme, n, p, m, steps, Θ) point per request.
// The grid expands into a deterministic work plan, deduplicates against
// itself and the LRU result cache, runs the misses on the shared worker
// pool (one guest calibration, one memo store, one flight group across
// all points — and across concurrent /v1/run traffic), and streams rows
// back as NDJSON the moment each completes. A dropped connection cancels
// every in-flight grid point through the request context and releases
// their pool slots.

// maxSweepBody bounds the /v1/sweep request body; even a maximal grid
// spec is a few KB of axis lists.
const maxSweepBody = 1 << 20

// maxAxisValues bounds one axis expansion so a malicious range cannot
// allocate unboundedly before the grid-size cap is checked.
const maxAxisValues = 1 << 16

// Axis is one integer sweep dimension. Its JSON accepts three spellings:
//
//	64                          a single value
//	[64, 256, 1024]             an explicit list
//	{"from": 64, "to": 1024, "mul": 4}   a geometric range (or "add"
//	                            for an arithmetic one), inclusive of
//	                            "to" when the progression lands on it
type Axis []int

// axisRange is the range-object spelling of an Axis or FloatAxis.
type axisRange struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Add  float64 `json:"add,omitempty"`
	Mul  float64 `json:"mul,omitempty"`
}

// expand walks the progression from From to To (inclusive).
func (r axisRange) expand() ([]float64, error) {
	switch {
	case r.Mul != 0 && r.Add != 0:
		return nil, fmt.Errorf(`range takes "add" or "mul", not both`)
	case r.Mul == 0 && r.Add == 0:
		return nil, fmt.Errorf(`range requires an "add" or "mul" step`)
	case r.Mul != 0 && r.Mul <= 1:
		return nil, fmt.Errorf(`range "mul" must be > 1, got %g`, r.Mul)
	case r.Add < 0:
		return nil, fmt.Errorf(`range "add" must be > 0, got %g`, r.Add)
	case r.To < r.From:
		return nil, fmt.Errorf(`range "to" (%g) below "from" (%g)`, r.To, r.From)
	}
	var out []float64
	for v := r.From; v <= r.To; {
		out = append(out, v)
		if len(out) > maxAxisValues {
			return nil, fmt.Errorf("range expands past %d values", maxAxisValues)
		}
		if r.Mul != 0 {
			v *= r.Mul
		} else {
			v += r.Add
		}
	}
	return out, nil
}

// unmarshalAxis dispatches on the three accepted spellings.
func unmarshalAxis(b []byte, single func() error, list func() error, ranged func(axisRange) error) error {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return fmt.Errorf("empty axis")
	}
	switch b[0] {
	case '[':
		return list()
	case '{':
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var r axisRange
		if err := dec.Decode(&r); err != nil {
			return err
		}
		return ranged(r)
	default:
		return single()
	}
}

func (a *Axis) UnmarshalJSON(b []byte) error {
	return unmarshalAxis(b,
		func() error {
			var v int
			if err := json.Unmarshal(b, &v); err != nil {
				return err
			}
			*a = Axis{v}
			return nil
		},
		func() error {
			var vs []int
			if err := json.Unmarshal(b, &vs); err != nil {
				return err
			}
			*a = vs
			return nil
		},
		func(r axisRange) error {
			vs, err := r.expand()
			if err != nil {
				return err
			}
			out := make(Axis, len(vs))
			for i, v := range vs {
				out[i] = int(v)
				if float64(out[i]) != v {
					return fmt.Errorf("range value %g is not an integer", v)
				}
			}
			*a = out
			return nil
		})
}

// FloatAxis is Axis for the real-valued Θ dimension.
type FloatAxis []float64

func (a *FloatAxis) UnmarshalJSON(b []byte) error {
	return unmarshalAxis(b,
		func() error {
			var v float64
			if err := json.Unmarshal(b, &v); err != nil {
				return err
			}
			*a = FloatAxis{v}
			return nil
		},
		func() error {
			var vs []float64
			if err := json.Unmarshal(b, &vs); err != nil {
				return err
			}
			*a = vs
			return nil
		},
		func(r axisRange) error {
			vs, err := r.expand()
			if err != nil {
				return err
			}
			*a = vs
			return nil
		})
}

// SweepRequest is the POST /v1/sweep body: the cross product of the
// scheme list and every axis, with the scalar fields shared by all grid
// points. Expansion order is deterministic — scheme-major, then n, p, m,
// steps, theta — and the row index identifies the point.
type SweepRequest struct {
	// Scheme or Schemes selects the scheme axis (both may be given; the
	// single Scheme is prepended).
	Scheme  string   `json:"scheme,omitempty"`
	Schemes []string `json:"schemes,omitempty"`

	D     int  `json:"d"`
	N     Axis `json:"n"`
	P     Axis `json:"p"`
	M     Axis `json:"m"`
	Steps Axis `json:"steps"`
	// Theta is the Θ axis; empty sweeps only Config.Theta (usually 0,
	// the lockstep default).
	Theta FloatAxis `json:"theta,omitempty"`

	Guest  string    `json:"guest,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
	Config RunConfig `json:"config,omitempty"`

	// SkipInvalid streams per-point validation failures as error rows
	// instead of rejecting the whole grid with a 400.
	SkipInvalid bool `json:"skip_invalid,omitempty"`
}

// SweepRow is one NDJSON line of the sweep response: the grid point's
// index plus either its run result or its structured error.
type SweepRow struct {
	Index int `json:"index"`
	// Deduped marks a point whose tuple duplicated an earlier grid
	// point after canonicalization; its result is shared, not re-run.
	Deduped bool         `json:"deduped,omitempty"`
	Result  *RunResponse `json:"result,omitempty"`
	Error   *ErrorDetail `json:"error,omitempty"`
}

// SweepSummary is the terminal NDJSON line: aggregate counters and, for
// traced sweeps, the merged span timeline under one "sweep" root.
type SweepSummary struct {
	Done      bool         `json:"done"`
	Points    int          `json:"points"`
	Rows      int          `json:"rows"`
	CacheHits int          `json:"cache_hits"`
	Deduped   int          `json:"deduped"`
	Errors    int          `json:"errors"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Trace     []*bsmp.Span `json:"trace,omitempty"`
}

// sweepUnit is the unit of execution after intra-grid deduplication: one
// canonical tuple (Trace set for traced sweeps), its flight key, and
// every grid index that maps to it. An invalid point (skip_invalid
// mode) is its own unit carrying only err.
type sweepUnit struct {
	key     string
	req     RunRequest
	err     *ErrorDetail
	indices []int
}

// planSweep expands the grid in deterministic order, validates every
// point, and deduplicates it against itself: points whose canonical
// tuples coincide share one unit, later indices marked Deduped. It
// returns the units and the grid size. A grid-shape problem (no scheme,
// empty axis, too many points) or — without skip_invalid — the first
// invalid point aborts with a non-nil ErrorDetail.
func (s *Server) planSweep(req SweepRequest, trace bool) ([]*sweepUnit, int, *ErrorDetail) {
	schemes := req.Schemes
	if req.Scheme != "" {
		schemes = append([]string{req.Scheme}, schemes...)
	}
	if len(schemes) == 0 {
		return nil, 0, &ErrorDetail{Kind: "param", Message: "sweep requires at least one scheme",
			Param: &bsmp.ParamError{Field: "schemes", Constraint: "at least one scheme required", Got: 0}}
	}
	for _, ax := range []struct {
		name string
		vals Axis
	}{{"n", req.N}, {"p", req.P}, {"m", req.M}, {"steps", req.Steps}} {
		if len(ax.vals) == 0 {
			return nil, 0, &ErrorDetail{Kind: "param",
				Message: fmt.Sprintf("sweep axis %q requires at least one value", ax.name),
				Param:   &bsmp.ParamError{Field: ax.name, Constraint: "axis requires at least one value", Got: 0}}
		}
	}
	thetas := []float64(req.Theta)
	if len(thetas) == 0 {
		thetas = []float64{req.Config.Theta}
	}
	// Accumulate the grid size factor by factor, rejecting as soon as the
	// running product exceeds the cap: the naive six-way product can wrap
	// around int (four 65536-value axes multiply to exactly 0 on 64-bit)
	// and slip past the guard into an effectively unbounded expansion
	// loop. Checking after every multiply keeps each intermediate product
	// ≤ MaxSweepPoints·(one axis length), far from overflow.
	total := 1
	for _, f := range []int{len(schemes), len(req.N), len(req.P), len(req.M), len(req.Steps), len(thetas)} {
		total *= f
		if total > s.cfg.MaxSweepPoints {
			return nil, 0, &ErrorDetail{Kind: "param",
				Message: fmt.Sprintf("grid expands to at least %d points, server limit %d", total, s.cfg.MaxSweepPoints),
				Param: &bsmp.ParamError{Field: "grid",
					Constraint: fmt.Sprintf("at most %d points per sweep", s.cfg.MaxSweepPoints), Got: total}}
		}
	}
	if detail := checkGuest("", &req.Guest); detail != nil {
		return nil, 0, detail
	}

	units := make([]*sweepUnit, 0, total)
	byKey := make(map[string]*sweepUnit, total)
	i := 0
	for _, sc := range schemes {
		for _, n := range req.N {
			for _, p := range req.P {
				for _, m := range req.M {
					for _, st := range req.Steps {
						for _, th := range thetas {
							cfg := req.Config
							cfg.Theta = th
							pt := RunRequest{
								Scheme: sc, D: req.D, N: n, P: p, M: m, Steps: st,
								Guest: req.Guest, Seed: req.Seed, Config: cfg,
							}
							if detail := s.admit(pt); detail != nil {
								if !req.SkipInvalid {
									detail.Message = fmt.Sprintf("grid point %d: %s", i, detail.Message)
									return nil, 0, detail
								}
								units = append(units, &sweepUnit{err: detail, indices: []int{i}})
							} else {
								pt = pt.canonical()
								pt.Trace = trace
								key := flightKey(pt)
								if u, ok := byKey[key]; ok {
									u.indices = append(u.indices, i)
								} else {
									byKey[key] = &sweepUnit{key: key, req: pt, indices: []int{i}}
									units = append(units, byKey[key])
								}
							}
							i++
						}
					}
				}
			}
		}
	}
	return units, total, nil
}

// sweepRowOut is one completed unit on its way to the response writer.
type sweepRowOut struct {
	unit *sweepUnit
	resp *RunResponse  // nil on error; Cached marks a result-LRU hit
	err  *ErrorDetail  // nil on success
	wait time.Duration // completion latency as seen by the sweep; 0 for cache hits
}

// handleSweep serves POST /v1/sweep[?trace=1]: NDJSON rows as grid
// points complete, then one summary line. Cancellation (client gone,
// server shutdown) stops all in-flight points; rows already flushed
// remain valid JSON lines.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodePost(w, r, maxSweepBody, "sweep", &req) {
		return
	}
	trace := r.URL.Query().Get("trace") == "1"
	units, points, gridErr := s.planSweep(req, trace)
	if gridErr != nil {
		writeError(w, http.StatusBadRequest, gridErr.Kind, gridErr.Message, gridErr.Param)
		return
	}

	s.ctr.Sweeps.Add(1)
	s.sweepsLive.Add(1)
	pending := int64(points)
	s.sweepRowsPending.Add(pending)
	defer func() {
		s.sweepsLive.Add(-1)
		s.sweepRowsPending.Add(-pending)
	}()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	start := time.Now()
	results := make(chan sweepRowOut)
	var wg sync.WaitGroup
	for _, u := range units {
		wg.Add(1)
		go func(u *sweepUnit) {
			defer wg.Done()
			results <- s.runSweepUnit(ctx, u)
		}(u)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Single writer: one JSON line per completed unit index, flushed as
	// it lands. After a write failure (client gone) or cancellation the
	// loop keeps draining so every goroutine can finish its accounting.
	sum := SweepSummary{Points: points}
	writeOK := true
	var rowTraces []tracedRow
	for out := range results {
		done := int64(len(out.unit.indices))
		pending -= done
		s.sweepRowsPending.Add(-done)
		for k, idx := range out.unit.indices {
			row := SweepRow{Index: idx, Deduped: k > 0}
			switch {
			case out.err != nil:
				row.Error = out.err
				sum.Errors++
				s.ctr.SweepRowErrors.Add(1)
			default:
				resp := *out.resp
				row.Result = &resp
				if resp.Cached {
					sum.CacheHits++
					s.ctr.SweepRowsCached.Add(1)
				}
			}
			if k > 0 {
				sum.Deduped++
				s.ctr.SweepRowsDeduped.Add(1)
			}
			s.ctr.SweepRows.Add(1)
			if row.Result != nil && trace && k == 0 && out.resp.Trace != nil {
				rowTraces = append(rowTraces, tracedRow{index: idx, resp: out.resp})
			}
			if !writeOK || ctx.Err() != nil {
				continue
			}
			line, err := json.Marshal(row)
			if err != nil {
				continue
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				writeOK = false
				cancel()
				continue
			}
			sum.Rows++
			if flusher != nil {
				flusher.Flush()
			}
		}
		if out.wait > 0 {
			s.sweepRowHist.Observe(out.wait.Seconds())
		}
	}
	sum.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if !writeOK || ctx.Err() != nil {
		s.ctr.SweepsCancelled.Add(1)
		return
	}
	sum.Done = true
	if trace {
		sum.Trace = mergeSweepTraces(start, time.Since(start), rowTraces)
	}
	if line, err := json.Marshal(sum); err == nil {
		if _, err := w.Write(append(line, '\n')); err == nil && flusher != nil {
			flusher.Flush()
		}
	}
}

// runSweepUnit resolves one deduplicated grid unit: cache probe, then
// the shared execution path, where it coalesces with identical
// concurrent runs or sweep units.
func (s *Server) runSweepUnit(ctx context.Context, u *sweepUnit) sweepRowOut {
	if u.err != nil {
		return sweepRowOut{unit: u, err: u.err}
	}
	if !u.req.Trace {
		if resp, ok := s.cached(u.key); ok {
			return sweepRowOut{unit: u, resp: resp}
		}
	}
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	case <-ctx.Done():
		_, detail := s.classifyRunError(ctx.Err())
		return sweepRowOut{unit: u, err: &detail}
	}
	start := time.Now()
	resp, _, err := s.runShared(ctx, u.req, "sweep", s.poolDoRetry)
	wait := time.Since(start)
	if err != nil {
		_, detail := s.classifyRunError(err)
		return sweepRowOut{unit: u, err: &detail, wait: wait}
	}
	return sweepRowOut{unit: u, resp: resp, wait: wait}
}

// poolDoRetry submits fn to the worker pool, riding out transient
// queue-full rejections: a sweep is a long-lived server-side job, so
// instead of shedding rows under momentary pool pressure it backs off
// briefly and retries until its context is cancelled. Interactive
// /v1/run traffic keeps its fail-fast 429 behavior.
func (s *Server) poolDoRetry(ctx context.Context, fn func(ctx context.Context) (any, error)) (any, error) {
	for {
		v, err := s.pool.Do(ctx, fn)
		if !errors.Is(err, ErrQueueFull) {
			return v, err
		}
		s.ctr.SweepQueueRetries.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// tracedRow pairs a grid index with its traced response for the merge.
type tracedRow struct {
	index int
	resp  *RunResponse
}

// mergeSweepTraces rebases every row's span timeline onto the sweep's
// epoch and nests them under one synthetic "sweep" root, each row root
// annotated with its grid index. Spans are deep-copied: row trees may be
// shared with concurrent coalesced /v1/run responses, so shifting them
// in place would corrupt someone else's timeline.
func mergeSweepTraces(epoch time.Time, dur time.Duration, rows []tracedRow) []*bsmp.Span {
	root := &bsmp.Span{Name: "sweep", DurNS: dur.Nanoseconds()}
	for _, tr := range rows {
		off := tr.resp.traceEpoch.Sub(epoch).Nanoseconds()
		for _, sp := range tr.resp.Trace {
			c := shiftSpan(sp, off)
			attrs := make(map[string]float64, len(c.Attrs)+1)
			for k, v := range c.Attrs {
				attrs[k] = v
			}
			attrs["index"] = float64(tr.index)
			c.Attrs = attrs
			root.Children = append(root.Children, c)
		}
	}
	return []*bsmp.Span{root}
}

// shiftSpan deep-copies a span tree with StartNS rebased by off.
func shiftSpan(sp *bsmp.Span, off int64) *bsmp.Span {
	c := &bsmp.Span{
		Name:    sp.Name,
		StartNS: sp.StartNS + off,
		DurNS:   sp.DurNS,
		Attrs:   sp.Attrs,
	}
	for _, ch := range sp.Children {
		c.Children = append(c.Children, shiftSpan(ch, off))
	}
	return c
}
