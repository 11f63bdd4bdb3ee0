package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"bsmp/internal/obs"
	"bsmp/internal/serve"
)

// gridPoints is the number of points a sweep request expands to.
func gridPoints(sw *serve.SweepRequest) int {
	return len(sw.N) * len(sw.P) * len(sw.M) * len(sw.Steps)
}

// account counts attempted and failed units (requests, or sweep rows),
// checks every answer, and returns how many units completed and how
// many of those met the latency limit. bad is the first correctness
// violation: a status other than 200, a transport error, a malformed
// sweep, or an answer that differs from set-up's answer for the same
// tuple.
func (b *bench) account(results []*result, out *output) (completed, ok int, bad error) {
	for _, r := range results {
		units := 1
		if r.op.sweep != nil {
			units = gridPoints(r.op.sweep)
		}
		out.Attempted += units
		if !r.ok(math.MaxInt64) {
			out.Failed += units
			if bad == nil {
				bad = fmt.Errorf("request %+v: status %d: %v", r.op, r.status, r.err)
			}
			continue
		}
		completed += units
		if r.lat <= b.spec.limit {
			ok += units
		} else {
			out.Failed += units
		}
		if r.run == nil {
			continue
		}
		if w, seen := b.warmed[tupleKey(*r.op.run)]; seen && !sameServed(w, r.run) && bad == nil {
			bad = fmt.Errorf("%s: answer %v differs from set-up's %v", tupleKey(*r.op.run), r.run.Time, w.Time)
		}
	}
	if out.Attempted == 0 {
		bad = fmt.Errorf("no request was sent")
	}
	return completed, ok, bad
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sendStats returns the generator's lateness samples (ms) and achieved
// send rate: requests over the time of the last send.
func sendStats(results []*result) (late []float64, rate float64) {
	var last time.Duration
	for _, r := range results {
		late = append(late, ms(r.late))
		if t := r.op.due + r.late; t > last {
			last = t
		}
	}
	return late, ratio(float64(len(results)), last.Seconds())
}

// lateLimit is the generator lateness (p99) beyond which an open-loop run
// is flagged invalid: the schedule was not kept.
const lateLimit = 20 * time.Millisecond

// endToEnd records the end-to-end metrics of an untraced run.
func (b *bench) endToEnd(results []*result, setupS []float64, window, cpu float64, rss []float64, hwm float64, completed, ok, attempted int) {
	m := b.m
	m.set("setup_s", median(setupS), fmt.Sprintf("median of %d set-ups %.3v", len(setupS), setupS))
	var runLat, rowLat, sweepLat []float64
	rows := 0
	for _, r := range bySend(results) {
		switch {
		case !r.ok(math.MaxInt64):
		case r.op.run != nil:
			runLat = append(runLat, ms(r.lat))
		case r.op.sweep != nil:
			sweepLat = append(sweepLat, ms(r.lat))
			for _, l := range r.rowLat {
				rowLat = append(rowLat, ms(l))
			}
			rows += len(r.rows)
		}
	}
	lat, what, done := runLat, "/v1/run latency", len(runLat)
	if b.spec.name == "sweep-grid" {
		lat, what, done = rowLat, "sweep row arrival", rows
	}
	p50, _ := percentile(lat, 0.5)
	p90, ok90 := percentile(lat, 0.9)
	m.set("latency_p50_ms", p50, fmt.Sprintf("%s, %d samples", what, len(lat)))
	b.notes = append(b.notes, fmt.Sprintf("latency_p90_ms %.4g ms (%s, %d samples%s)", p90, what, len(lat), unreportable(ok90)))
	m.set("throughput_per_s", float64(done)/window, fmt.Sprintf("%d completed in %.3fs", done, window))
	m.set("ok_share", ratio(float64(ok), float64(attempted)),
		fmt.Sprintf("%d of %d within %v", ok, attempted, b.spec.limit))
	m.set("cpu_ms_per_op", 1000*cpu/float64(completed), fmt.Sprintf("%.2fs daemon CPU over %d ops", cpu, completed))
	m.set("rss_p50_mb", median(rss), fmt.Sprintf("median of %d daemon VmRSS samples, one per %v", len(rss), rssEvery))
	b.notes = append(b.notes, fmt.Sprintf("rss_peak_mb %.4g MB (daemon VmHWM over set-up and the measured interval)", hwm))

	// The tail, and the numbers under their per-workload names.
	if b.spec.name == "sweep-grid" {
		s50, _ := percentile(sweepLat, 0.5)
		s90, ok := percentile(sweepLat, 0.9)
		b.notes = append(b.notes,
			fmt.Sprintf("sweep_rows_per_s %.4g 1/s (%d rows)", float64(rows)/window, rows),
			fmt.Sprintf("sweep_p50_ms %.4g ms, sweep_p90_ms %.4g ms (%d sweeps%s)", s50, s90, len(sweepLat), unreportable(ok)))
	} else {
		p99, ok99 := percentile(runLat, 0.99)
		if ok99 && len(runLat) >= 1000 {
			b.notes = append(b.notes, fmt.Sprintf("run_p99_ms %.4g ms (%d runs)", p99, len(runLat)))
		} else {
			b.notes = append(b.notes, fmt.Sprintf("run_p99_ms not reported: %d runs, fewer than 1000", len(runLat)))
		}
		if b.spec.rate == 0 {
			b.notes = append(b.notes, fmt.Sprintf("runs_per_s %.4g 1/s", float64(len(runLat))/window))
		}
	}
	if b.spec.rate > 0 {
		late, rate := sendStats(results)
		l99, _ := percentile(late, 0.99)
		verdict := "valid"
		if l99 > ms(lateLimit) || rate < 0.95*b.spec.rate {
			verdict = "INVALID: the generator fell behind its schedule"
		}
		b.notes = append(b.notes, fmt.Sprintf("loadgen late_p99 %.3g ms, achieved %.4g of %g requests/s: %s", l99, rate, b.spec.rate, verdict))
	}
}

// unreportable annotates a percentile with too few samples beyond it.
func unreportable(ok bool) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(", fewer than %d beyond", minBeyond)
}

// servedPairs lists the requests the daemon executed during the run with
// its answers, in send order: set-up's tuples for run-hot (the measured
// requests only repeat them), every sweep row otherwise the measured
// runs.
func (b *bench) servedPairs(results []*result) []served {
	var out []served
	if b.spec.name == "run-hot" {
		for _, req := range b.plan.warm {
			out = append(out, served{req, b.warmed[tupleKey(req)]})
		}
		return out
	}
	for _, r := range bySend(results) {
		switch {
		case !r.ok(math.MaxInt64):
		case r.run != nil:
			out = append(out, served{*r.op.run, r.run})
		case r.op.sweep != nil:
			rows := append([]serve.SweepRow(nil), r.rows...)
			sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
			for _, row := range rows {
				if !row.Deduped && row.Result != nil {
					out = append(out, served{rowRequest(row.Result), row.Result})
				}
			}
		}
	}
	return out
}

// bySend orders results by due time; closed-loop results, all due at 0,
// keep their send order.
func bySend(results []*result) []*result {
	sorted := append([]*result(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].op.due < sorted[j].op.due })
	return sorted
}

// sample picks k of the served pairs, evenly spaced.
func (b *bench) sample(results []*result, k int) []served {
	all := b.servedPairs(results)
	if len(all) <= k {
		return all
	}
	out := make([]served, k)
	for i := range out {
		out[i] = all[i*len(all)/k]
	}
	return out
}

// sweepShape is the work/span accounting of one served sweep (SNIPPETS.md
// snippet 3): work is the summed row wall time, span the longest row.
type sweepShape struct {
	work, span, wall float64 // ms
}

// parallelism is work over the sweep's wall time; bound is
// min(workers, work/span), which it can never exceed.
func (s sweepShape) parallelism() float64 { return ratio(s.work, s.wall) }
func (s sweepShape) bound() float64 {
	return math.Min(float64(runtime.GOMAXPROCS(0)), ratio(s.work, s.span))
}

// sweepShape reads the run records of r's rows from the registry and
// checks the sweep against its work/span bound.
func (b *bench) sweepShape(ctx context.Context, c *http.Client, base string, r *result) error {
	if r.sum == nil {
		return nil
	}
	var list serve.RunsResponse
	if err := getJSON(ctx, c, base, "/v1/runs?source=sweep&limit=500", &list); err != nil {
		return err
	}
	wall := map[string]float64{}
	for _, info := range list.Runs {
		wall[info.ID] = info.WallMS
	}
	var s sweepShape
	seen := map[string]bool{}
	for _, row := range r.rows {
		if row.Result == nil || row.Result.Cached || seen[row.Result.RunID] {
			continue
		}
		w, ok := wall[row.Result.RunID]
		if !ok {
			return fmt.Errorf("sweep row %d: run record %q not retained", row.Index, row.Result.RunID)
		}
		seen[row.Result.RunID] = true
		s.work += w
		s.span = math.Max(s.span, w)
	}
	s.wall = r.sum.ElapsedMS
	if s.parallelism() > s.bound() {
		return fmt.Errorf("sweep parallelism %.3f exceeds its work/span bound %.3f", s.parallelism(), s.bound())
	}
	b.sweeps = append(b.sweeps, s)
	return nil
}

// loadLayers records the per-layer metrics of the untraced load: the
// daemon's counter and histogram deltas, the sweeps' work/span figures,
// and the generator's own validity.
func (b *bench) loadLayers(results []*result, window float64, before, after map[string]json.RawMessage) {
	m := b.m
	delta := func(k string) float64 {
		var x, y float64
		_ = json.Unmarshal(before[k], &x)
		_ = json.Unmarshal(after[k], &y)
		return y - x
	}
	var h0, h1 obs.HistSnapshot
	_ = json.Unmarshal(before["queue_wait_seconds"], &h0)
	_ = json.Unmarshal(after["queue_wait_seconds"], &h1)
	for i := range h1.Counts {
		if i < len(h0.Counts) {
			h1.Counts[i] -= h0.Counts[i]
		}
	}
	h1.Count -= h0.Count
	h1.Sum -= h0.Sum
	qn := fmt.Sprintf("bsmpd_queue_wait_seconds, %d waits", h1.Count)
	var q50, q99 float64
	if h1.Count > 0 {
		q50, q99 = 1000*h1.Quantile(0.5), 1000*h1.Quantile(0.99)
	}
	m.set("serve.queue_ms_p50", q50, qn)
	m.set("serve.queue_ms_p99", q99, qn)

	hits, misses, coal, rejects := delta("cache_hits"), delta("cache_misses"), delta("coalesced"), delta("queue_rejects")
	rows, rowsCached, rowsDeduped := delta("sweep_rows"), delta("sweep_rows_cached"), delta("sweep_rows_deduped")
	lookups := hits + misses + rows - rowsDeduped
	m.set("serve.cache_hit_ratio", ratio(hits+rowsCached, lookups), fmt.Sprintf("%.0f hits of %.0f lookups", hits+rowsCached, lookups))
	execs := misses + rows - rowsCached - rowsDeduped
	m.set("serve.coalesced_ratio", ratio(coal, execs), fmt.Sprintf("%.0f coalesced of %.0f misses", coal, execs))
	m.set("serve.shed_share", ratio(rejects, hits+misses), fmt.Sprintf("%.0f shed of %.0f runs", rejects, hits+misses))
	m.set("serve.sweep_dedup_ratio", ratio(rowsDeduped, rows), fmt.Sprintf("%.0f deduped of %.0f rows", rowsDeduped, rows))

	var work, span, par, bound []float64
	for _, s := range b.sweeps {
		work, span = append(work, s.work), append(span, s.span)
		par, bound = append(par, s.parallelism()), append(bound, s.bound())
	}
	sn := fmt.Sprintf("median of %d sweeps", len(b.sweeps))
	m.set("serve.sweep_work_ms", median(work), sn)
	m.set("serve.sweep_span_ms", median(span), sn)
	m.set("serve.sweep_parallelism", median(par), sn)
	m.set("serve.sweep_parallelism_bound", median(bound), sn+fmt.Sprintf(", min(%d workers, work/span)", runtime.GOMAXPROCS(0)))

	late, rate := sendStats(results)
	l99, _ := percentile(late, 0.99)
	if b.spec.rate == 0 {
		l99, rate = 0, float64(len(results))/window
	}
	m.set("loadgen.late_ms_p99", l99, fmt.Sprintf("%d sends", len(late)))
	m.set("loadgen.achieved_rate_rps", rate, fmt.Sprintf("target %g (0 = closed loop)", b.spec.rate))
}
