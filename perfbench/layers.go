package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"bsmp"
	"bsmp/internal/obs"
	"bsmp/internal/serve"
)

// schemes are the schemes the workloads send; each gets a
// simulate.wall_ms.<scheme> metric, 0 where a workload sends none.
var schemes = []string{"multi", "multi-theta", "multi-faulty", "blocked", "blocked-analytic", "unidc"}

// spanStats accumulates span self times by span name over traced runs.
type spanStats struct {
	self     map[string]time.Duration // duration minus the time children cover
	incl     map[string]time.Duration // whole duration
	count    map[string]int
	vertices float64 // n·steps of runs that replayed
	// thetaSched is the self time of multi-theta's event-driven
	// schedules, also counted under "schedule".
	thetaSched time.Duration
}

func newSpanStats() *spanStats {
	return &spanStats{self: map[string]time.Duration{}, incl: map[string]time.Duration{}, count: map[string]int{}}
}

// add credits one run's span tree.
func (s *spanStats) add(sp *bsmp.Span, req serve.RunRequest) {
	s.count[sp.Name]++
	s.incl[sp.Name] += time.Duration(sp.DurNS)
	self := time.Duration(sp.DurNS - covered(sp))
	s.self[sp.Name] += self
	switch {
	case sp.Name == "replay":
		s.vertices += float64(req.N) * float64(req.Steps)
	case sp.Name == "schedule" && req.Scheme == "multi-theta":
		s.thetaSched += self
	}
	for _, c := range sp.Children {
		s.add(c, req)
	}
}

// covered is the length of the union of sp's children's intervals,
// clipped to sp's own interval.
func covered(sp *bsmp.Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	lo, hi := sp.StartNS, sp.StartNS+sp.DurNS
	for _, c := range sp.Children {
		a, b := max(c.StartNS, lo), min(c.StartNS+c.DurNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// sum adds the self times of every span name matching keep.
func (s *spanStats) sum(keep func(string) bool) time.Duration {
	var t time.Duration
	for name, d := range s.self {
		if keep(name) {
			t += d
		}
	}
	return t
}

// resetMemo empties the process-wide memo store (kernels and subtree
// records), so an in-process pass starts as cold as a fresh daemon.
func resetMemo() {
	c := bsmp.MemoCapacity()
	bsmp.SetMemoCapacity(0)
	bsmp.SetMemoCapacity(c)
}

// warmInProcess runs the workload's set-up requests in process.
func warmInProcess(ctx context.Context, reqs []serve.RunRequest) error {
	for _, req := range reqs {
		if _, err := compute(ctx, req); err != nil {
			return fmt.Errorf("in-process set-up %s: %w", tupleKey(req), err)
		}
	}
	return nil
}

// inProcess re-executes the served sample in process twice from the same
// cold start, untraced then traced, checks both against the daemon's
// answers bit for bit, and records the engine's per-layer metrics. The
// serve layer's are measured on an in-process server afterwards.
func (b *bench) inProcess(ctx context.Context, results []*result) error {
	pairs := b.servedPairs(results)
	if n := b.spec.traceSample; len(pairs) > n {
		pairs = pairs[:n]
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no served run to re-execute")
	}
	warm := b.plan.warm
	if b.spec.name == "run-hot" {
		warm = nil // the sample is set-up's own tuples
	}
	if b.spec.memoCap != 0 {
		bsmp.SetMemoCapacity(b.spec.memoCap)
	}

	resetMemo()
	if err := warmInProcess(ctx, warm); err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	wall := map[string][]float64{}
	var untraced time.Duration
	for _, p := range pairs {
		t0 := time.Now()
		res, err := compute(ctx, p.req)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", tupleKey(p.req), err)
		}
		if err := sameAnswer(p.resp, res); err != nil {
			return fmt.Errorf("served %s: %w", tupleKey(p.req), err)
		}
		untraced += d
		wall[p.req.Scheme] = append(wall[p.req.Scheme], ms(d))
	}
	runtime.ReadMemStats(&mem1)

	resetMemo()
	if err := warmInProcess(ctx, warm); err != nil {
		return err
	}
	_, kh0, km0, ke0 := bsmp.KernelCacheStats()
	memo0 := bsmp.MemoStatsSnapshot()
	st := newSpanStats()
	var traced time.Duration
	spans := 0
	for _, p := range pairs {
		tr := bsmp.NewTracer()
		t0 := time.Now()
		res, err := compute(bsmp.WithTracer(ctx, tr), p.req)
		traced += time.Since(t0)
		if err != nil {
			return fmt.Errorf("traced in-process %s: %w", tupleKey(p.req), err)
		}
		if err := sameAnswer(p.resp, res); err != nil {
			return fmt.Errorf("traced %s: %w", tupleKey(p.req), err)
		}
		for _, root := range tr.Roots() {
			st.add(root, p.req)
		}
		spans += tr.Len()
	}
	_, kh1, km1, ke1 := bsmp.KernelCacheStats()
	memo1 := bsmp.MemoStatsSnapshot()

	m, runs := b.m, float64(len(pairs))
	base := fmt.Sprintf("per run, %d runs", len(pairs))
	is := func(names ...string) func(string) bool {
		return func(n string) bool {
			for _, x := range names {
				if n == x {
					return true
				}
			}
			return false
		}
	}
	m.set("simulate.replay_ms", ms(st.sum(is("replay")))/runs, base)
	m.set("network.replay_ns_per_vertex", ratio(float64(st.sum(is("replay"))), st.vertices),
		fmt.Sprintf("over %.0f replayed vertices", st.vertices))
	m.set("simulate.calibrate_ms", ms(st.incl["calibrate"])/runs, base+", calibrate spans with their nested blocks")
	m.set("simulate.calibrations_per_run", float64(st.count["calibrate"])/runs, base)
	m.set("simulate.kernel_hit_ratio", ratio(float64(kh1-kh0), float64(kh1-kh0+km1-km0)),
		fmt.Sprintf("%d hits of %d kernel lookups", kh1-kh0, kh1-kh0+km1-km0))
	m.set("simulate.kernel_evictions_per_run", float64(ke1-ke0)/runs, base)
	m.set("simulate.block_ms", ms(st.sum(is("block", "block:replayed")))/runs, base)
	sh, sl := subtreeDelta(memo0, memo1)
	m.set("simulate.memo_subtree_hit_ratio", ratio(sh, sh+sl), fmt.Sprintf("%.0f hits of %.0f subtree lookups", sh, sh+sl))
	m.set("simulate.scheme_self_ms", ms(st.sum(func(n string) bool { return strings.HasPrefix(n, "scheme:") }))/runs, base)
	m.set("simulate.plan_ms", ms(st.sum(is("plan")))/runs, base)
	m.set("simulate.schedule_ms", ms(st.self["schedule"]-st.thetaSched)/runs, base+", lockstep schedules")
	m.set("simulate.phase_ms", ms(st.sum(func(n string) bool { return strings.HasPrefix(n, "phase:") }))/runs, base)
	m.set("sched.schedule_ms", ms(st.thetaSched)/runs, base+", multi-theta event schedules")
	for _, s := range schemes {
		m.set("simulate.wall_ms."+s, median(wall[s]), fmt.Sprintf("untraced p50, %d runs", len(wall[s])))
	}
	m.set("simulate.alloc_mb_per_run", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/runs, base)
	m.set("obs.spans_per_run", float64(spans)/runs, base)
	m.set("obs.trace_overhead_ratio", ratio(float64(traced), float64(untraced)),
		fmt.Sprintf("traced %.1fms over untraced %.1fms", ms(traced), ms(untraced)))
	all := st.sum(func(string) bool { return true })
	m.set("simulate.layer_sum_ratio", ratio(float64(all), float64(traced)),
		fmt.Sprintf("span self times %.1fms over traced engine wall %.1fms", ms(all), ms(traced)))

	var validate []float64
	for _, p := range pairs {
		const reps = 100
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_ = bsmp.ValidateParams(p.req.Scheme, p.req.D, p.req.N, p.req.P, p.req.M, p.req.Steps)
		}
		validate = append(validate, float64(time.Since(t0).Nanoseconds())/1e3/reps)
	}
	m.set("simulate.validate_us_p50", median(validate), fmt.Sprintf("%d tuples", len(validate)))
	return b.servePass(ctx, results, pairs)
}

// subtreeDelta sums the subtree and analytic memo hits and misses
// between two snapshots.
func subtreeDelta(a, b bsmp.MemoStats) (hits, misses float64) {
	for _, l := range b.Levels {
		if l.Kind != "kernel" {
			hits += float64(l.Hits)
			misses += float64(l.Misses)
		}
	}
	for _, l := range a.Levels {
		if l.Kind != "kernel" {
			hits -= float64(l.Hits)
			misses -= float64(l.Misses)
		}
	}
	return hits, misses
}

// servePass measures the serving layer on an in-process server with the
// daemon's defaults: the handler round trip of /v1/run less the run
// record's queue and engine wall time, the response size, and the
// /v1/runs listing and /metrics.prom render times.
func (b *bench) servePass(ctx context.Context, results []*result, pairs []served) error {
	s := serve.New(serve.Config{})
	defer s.Shutdown(ctx)
	h := s.Handler()
	call := func(method, path string, body any) (*httptest.ResponseRecorder, time.Duration, error) {
		var j []byte
		if body != nil {
			var err error
			if j, err = json.Marshal(body); err != nil {
				return nil, 0, err
			}
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(j)).WithContext(ctx)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("in-process %s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return rec, d, nil
	}

	reqs := make([]serve.RunRequest, 0, len(pairs))
	for _, p := range pairs {
		reqs = append(reqs, p.req)
	}
	if b.spec.name == "run-hot" {
		for _, req := range b.plan.warm {
			if _, _, err := call(http.MethodPost, "/v1/run", req); err != nil {
				return err
			}
		}
		reqs = reqs[:0]
		for _, r := range results {
			if r.op.run != nil && len(reqs) < 200 {
				reqs = append(reqs, *r.op.run)
			}
		}
	} else if len(reqs) > 40 {
		reqs = reqs[:40]
	}
	var overhead, size []float64
	for _, req := range reqs {
		rec, rt, err := call(http.MethodPost, "/v1/run", req)
		if err != nil {
			return err
		}
		size = append(size, float64(rec.Body.Len()))
		var resp serve.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		o := ms(rt)
		if !resp.Cached {
			rec, _, err := call(http.MethodGet, "/v1/runs/"+resp.RunID, nil)
			if err != nil {
				return err
			}
			var info obs.RunInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				return err
			}
			o -= info.QueueMS + info.WallMS
		}
		overhead = append(overhead, o)
	}
	var list, prom []float64
	for i := 0; i < 20; i++ {
		_, d1, err1 := call(http.MethodGet, "/v1/runs?limit=50", nil)
		_, d2, err2 := call(http.MethodGet, "/metrics.prom", nil)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("in-process polls: %v %v", err1, err2)
		}
		list, prom = append(list, ms(d1)), append(prom, ms(d2))
	}
	m, n := b.m, fmt.Sprintf("%d in-process /v1/run calls", len(reqs))
	m.set("serve.overhead_ms_p50", median(overhead), n+", round trip less queue and engine wall")
	m.set("serve.resp_bytes_mean", mean(size), n)
	m.set("obs.runs_list_ms_p50", median(list), "20 GET /v1/runs?limit=50")
	m.set("serve.prom_render_ms_p50", median(prom), "20 GET /metrics.prom")
	return nil
}
