package serve

import (
	"expvar"
	"reflect"
)

// counters holds every monotone expvar counter the serving layer bumps.
// publish allocates each field and sets it into the /metrics map under
// its expvar tag at server construction, so every series renders (as 0)
// on /metrics and /metrics.prom from boot instead of materializing on
// its first increment — dashboards and alerts can rely on the full
// series set existing. An increment names a field, so a misspelled or
// undeclared counter does not compile; TestCounterFieldsIncremented
// catches a declared counter nothing bumps.
//
// Gauges (expvar.Func) are not listed: they are registered eagerly in
// registerGauges.
type counters struct {
	// request middleware
	Requests        *expvar.Int `expvar:"requests"`
	Responses2xx    *expvar.Int `expvar:"responses_2xx"`
	Responses4xx    *expvar.Int `expvar:"responses_4xx"`
	Responses5xx    *expvar.Int `expvar:"responses_5xx"`
	PanicsRecovered *expvar.Int `expvar:"panics_recovered"`

	// run lifecycle
	Runs             *expvar.Int `expvar:"runs"`
	RunsCancelled    *expvar.Int `expvar:"runs_cancelled"`
	TracedRuns       *expvar.Int `expvar:"traced_runs"`
	CacheHits        *expvar.Int `expvar:"cache_hits"`
	CacheMisses      *expvar.Int `expvar:"cache_misses"`
	Coalesced        *expvar.Int `expvar:"coalesced"`
	QueueRejects     *expvar.Int `expvar:"queue_rejects"`
	DeadlineTimeouts *expvar.Int `expvar:"deadline_timeouts"`

	// /v1/sweep lifecycle
	Sweeps            *expvar.Int `expvar:"sweeps"`
	SweepsCancelled   *expvar.Int `expvar:"sweeps_cancelled"`
	SweepRows         *expvar.Int `expvar:"sweep_rows"`
	SweepRowsCached   *expvar.Int `expvar:"sweep_rows_cached"`
	SweepRowsDeduped  *expvar.Int `expvar:"sweep_rows_deduped"`
	SweepRowErrors    *expvar.Int `expvar:"sweep_row_errors"`
	SweepQueueRetries *expvar.Int `expvar:"sweep_queue_retries"`

	// run registry / flight recorder
	RunEventsStreams *expvar.Int `expvar:"run_events_streams"`

	// shutdown
	Draining *expvar.Int `expvar:"draining"`
}

// publish allocates every counter at zero and sets it into vars under
// its expvar tag.
func (c *counters) publish(vars *expvar.Map) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		ctr := new(expvar.Int)
		v.Field(i).Set(reflect.ValueOf(ctr))
		vars.Set(v.Type().Field(i).Tag.Get("expvar"), ctr)
	}
}
