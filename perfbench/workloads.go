package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"bsmp"
	"bsmp/internal/serve"
)

// op is one client request of a workload.
type op struct {
	run   *serve.RunRequest   // POST /v1/run
	sweep *serve.SweepRequest // POST /v1/sweep
	get   string              // GET path (a dashboard poll)
	due   time.Duration       // open loop: send time, from the window start
}

// plan is everything a workload sends, derived from the seed alone: the
// set-up requests that warm the daemon and the measured request stream.
type plan struct {
	warm []serve.RunRequest
	// next returns the measured stream's next request; ok is false once
	// an open-loop schedule is exhausted.
	next func() (o op, ok bool)
}

// spec describes one named workload.
type spec struct {
	name string
	// rate is the open-loop Poisson arrival rate in requests per second;
	// 0 selects a closed loop with one client.
	rate float64
	// group makes a closed loop stop only after a multiple of group
	// requests, so every run sends the same mix.
	group int
	// limit is the latency limit a request must meet to count as ok.
	limit time.Duration
	// memoCap, when set, is the daemon's -memo-cap, and the in-process
	// passes use the same capacity.
	memoCap int
	// traceSample bounds how many served runs (or sweep rows) a traced
	// run re-executes in process.
	traceSample int
	build       func(rng *rand.Rand, rate, seconds float64) (*plan, error)
}

// specs are the benchmark's workloads, by name. On a 2-core host
// run-multi keeps the daemon busy about a fifth of one core's time and
// run-hot an eighth; README.md says why not half.
var specs = map[string]*spec{
	"run-multi": {name: "run-multi", rate: 60, limit: 2 * time.Second, build: buildRunMulti,
		memoCap: 1 << 16, traceSample: 120},
	"run-hot": {name: "run-hot", rate: 1600, limit: 250 * time.Millisecond, build: buildRunHot,
		traceSample: hotSet},
	"sweep-grid": {name: "sweep-grid", group: 2, limit: 30 * time.Second, build: buildSweepGrid,
		traceSample: 2 * 150},
	"uni-blocked": {name: "uni-blocked", group: len(uniClasses), limit: 5 * time.Second, build: buildUniBlocked,
		traceSample: 2 * len(uniClasses)},
}

// newPlan builds the named workload's plan for seed.
func newPlan(name string, seed uint64, seconds float64) (*spec, *plan, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	p, err := sp.build(rand.New(rand.NewPCG(seed, 0x62736d70)), sp.rate, seconds)
	return sp, p, err
}

// mRange is the Theorem 1 m-range (1..4) of (d, n, p, m).
func mRange(d, n, p, m int) int {
	b12, b23, b34 := bsmp.Boundaries(d, n, p)
	switch x := float64(m); {
	case x < b12:
		return 1
	case x < b23:
		return 2
	case x < b34:
		return 3
	}
	return 4
}

// multiShape is one (d, n, p, m) machine of the multi-family grid.
type multiShape struct{ d, n, p, m int }

// multiShapes lists the machines of the run-multi grid: d = 1 and 2 with
// n up to 4096 and a small d = 3 corner, m across Theorem 1 ranges 1-3.
// d = 1 shapes whose calibration guest exceeds 128 columns per memory
// word are left out: one of their kernels costs more than a second.
func multiShapes() []multiShape {
	var out []multiShape
	for _, n := range []int{256, 1024, 4096} {
		for _, p := range []int{4, 8, 16, 64} {
			for _, m := range []int{1, 2, 4, 8, 16, 64, 256} {
				if n/p/m <= 128 && mRange(1, n, p, m) <= 3 {
					out = append(out, multiShape{1, n, p, m})
				}
			}
		}
		for _, p := range []int{4, 16, 64} {
			for _, m := range []int{1, 4, 16, 64} {
				if mRange(2, n, p, m) <= 3 {
					out = append(out, multiShape{2, n, p, m})
				}
			}
		}
	}
	for _, m := range []int{2, 4} {
		out = append(out, multiShape{3, 512, 8, m})
	}
	return out
}

// multiRequest is one multi-family /v1/run tuple. variant 0 is lockstep
// multi, 1-2 multi-theta with Θ = 2 or 4, 3-4 multi-faulty with fault
// density 0.05 or 0.2; the Θ and fault seeds are left to the caller.
func multiRequest(s multiShape, steps int, seed uint64, variant int) serve.RunRequest {
	r := serve.RunRequest{Scheme: "multi", D: s.d, N: s.n, P: s.p, M: s.m, Steps: steps, Seed: seed}
	switch variant {
	case 1, 2:
		r.Scheme = "multi-theta"
		r.Config.Theta = float64(2 * variant)
	case 3, 4:
		r.Scheme = "multi-faulty"
		r.Config.Faults = []float64{0.05, 0.2}[variant-3]
	}
	return r
}

// warmSteps is the step count of set-up's kernel-warming runs. Kernels
// do not depend on steps, and no measured request uses this value, so
// the measured requests still miss the result cache.
const warmSteps = 16

// multiClasses is run-multi's request mix: every multi shape at seven
// step counts up to 256, the scheme variant cycling through the five
// multiRequest variants. A run sends the first rate×seconds of them
// (cycling under the next pool seed when it needs more), so every seed
// sends the same mix and only the order, arrival times and seeds change.
func multiClasses() []serve.RunRequest {
	var out []serve.RunRequest
	for _, s := range multiShapes() {
		steps := []int{32, 48, 64, 96, 128, 192, 256}
		if s.d == 3 {
			steps = steps[:3]
		}
		variants := 5
		if s.p < 16 {
			variants = 3
		}
		for _, st := range steps {
			r := multiRequest(s, st, 0, len(out)%variants)
			if r.Config.Faults != 0 {
				r.Config.FaultSeed = uint64(1 + len(out))
			}
			out = append(out, r)
		}
	}
	return out
}

// buildRunMulti: distinct multi-family tuples at exactly rate×seconds
// Poisson arrivals. Guest seeds (and the Θ and fault seeds) come from a
// small pool. Set-up runs each measured machine once at warmSteps, with
// its guest seed and fault mask, so every kernel a measured run needs is
// already calibrated.
func buildRunMulti(rng *rand.Rand, rate, seconds float64) (*plan, error) {
	classes := multiClasses()
	n := int(math.Round(rate * seconds))
	pool := make([]uint64, max(2, (n+len(classes)-1)/len(classes)))
	for i := range pool {
		pool[i] = 1 + rng.Uint64N(1<<20)
	}
	p := &plan{}
	seen := map[serve.RunRequest]bool{}
	ops := make([]op, n)
	for k := range ops {
		// Cycle c through the classes gives class i pool seed i+c, so
		// tuples never repeat.
		i := k % len(classes)
		r, seed := classes[i], pool[(i+k/len(classes))%len(pool)]
		r.Seed = seed
		if r.Config.Theta != 0 {
			r.Config.ThetaSeed = seed
		}
		ops[k].run = &r
		// Θ does not change kernels; a fault mask does.
		w := r
		w.Steps = warmSteps
		if w.Scheme == "multi-theta" {
			w.Scheme, w.Config = "multi", serve.RunConfig{}
		}
		if !seen[w] {
			seen[w] = true
			p.warm = append(p.warm, w)
		}
	}
	p.next = arrivals(rng, ops, seconds)
	return p, nil
}

// arrivals shuffles ops and schedules them as a Poisson process
// conditioned on its count: len(ops) uniform send times over seconds, in
// order.
func arrivals(rng *rand.Rand, ops []op, seconds float64) func() (op, bool) {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	due := make([]float64, len(ops))
	for i := range due {
		due[i] = rng.Float64() * seconds
	}
	sort.Float64s(due)
	for i := range ops {
		ops[i].due = time.Duration(due[i] * float64(time.Second))
	}
	i := 0
	return func() (op, bool) {
		if i == len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	}
}

// hotSet is the number of distinct tuples run-hot cycles through.
const hotSet = 64

// buildRunHot: Zipf-distributed repeats of 64 tuples that set-up has
// already executed (64 multi shapes evenly spaced through multiShapes,
// under one seeded guest), plus a fixed 5% share each of run-listing and
// Prometheus polls, at exactly rate×seconds arrivals.
func buildRunHot(rng *rand.Rand, rate, seconds float64) (*plan, error) {
	shapes := multiShapes()
	p := &plan{}
	seed := 1 + rng.Uint64N(1<<20)
	for i := 0; i < hotSet; i++ {
		p.warm = append(p.warm, multiRequest(shapes[i*len(shapes)/hotSet], 32, seed, 0))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, hotSet-1)
	ops := make([]op, int(math.Round(rate*seconds)))
	for k := range ops {
		switch {
		case k%20 == 0:
			ops[k].get = "/v1/runs?limit=50"
		case k%20 == 1:
			ops[k].get = "/metrics.prom"
		default:
			ops[k].run = &p.warm[zipf.Uint64()]
		}
	}
	p.next = arrivals(rng, ops, seconds)
	return p, nil
}

// sweepGrids are the two alternating 150-point multi grids of
// sweep-grid.
var sweepGrids = [2]serve.SweepRequest{
	{Scheme: "multi", D: 1, N: serve.Axis{256, 1024}, P: serve.Axis{4, 8, 16},
		M: serve.Axis{4, 8, 16, 32, 64}, Steps: serve.Axis{32, 64, 96, 128, 192}},
	{Scheme: "multi", D: 2, N: serve.Axis{256, 1024}, P: serve.Axis{4, 16, 64},
		M: serve.Axis{1, 4, 16, 64, 256}, Steps: serve.Axis{16, 32, 48, 64, 96}},
}

// buildSweepGrid: a closed loop of sweeps alternating d = 1 and d = 2,
// each under a fresh guest seed, so result-cache misses and d = 1
// kernel calibrations are shared only within one sweep. Set-up runs the
// d = 1 grid's points one by one under guest seed 0, which no sweep uses.
func buildSweepGrid(rng *rand.Rand, _, _ float64) (*plan, error) {
	sw := sweepGrids[0]
	var warm []serve.RunRequest
	for _, n := range sw.N {
		for _, p := range sw.P {
			for _, m := range sw.M {
				for _, st := range sw.Steps {
					warm = append(warm, serve.RunRequest{Scheme: sw.Scheme, D: sw.D, N: n, P: p, M: m, Steps: st})
				}
			}
		}
	}
	i := 0
	return &plan{warm: warm, next: func() (op, bool) {
		sw := sweepGrids[i%2]
		sw.Seed = 1 + rng.Uint64N(1<<40)
		i++
		return op{sweep: &sw}, true
	}}, nil
}

// uniClasses are the uniprocessor recursion runs of uni-blocked, sent in
// this fixed rotation (each ~30-300 ms on a 2-core host).
var uniClasses = []serve.RunRequest{
	{Scheme: "blocked", D: 1, N: 256, P: 1, M: 4, Steps: 64},
	{Scheme: "blocked", D: 1, N: 512, P: 1, M: 16, Steps: 64},
	{Scheme: "blocked", D: 2, N: 256, P: 1, M: 4, Steps: 16},
	{Scheme: "blocked", D: 2, N: 256, P: 1, M: 1, Steps: 32},
	{Scheme: "blocked", D: 3, N: 64, P: 1, M: 1, Steps: 16},
	{Scheme: "blocked-analytic", D: 1, N: 4096, P: 1, M: 4, Steps: 256},
	{Scheme: "unidc", D: 1, N: 256, P: 1, M: 1, Steps: 64},
	{Scheme: "unidc", D: 2, N: 256, P: 1, M: 1, Steps: 16},
}

// buildUniBlocked: a closed loop over uniClasses, each run under a fresh
// guest seed so no result is cached. Set-up runs one rotation under
// guest seed 0, which no measured run uses.
func buildUniBlocked(rng *rand.Rand, _, _ float64) (*plan, error) {
	i := 0
	return &plan{warm: uniClasses, next: func() (op, bool) {
		r := uniClasses[i%len(uniClasses)]
		r.Seed = 1 + rng.Uint64N(1<<40)
		i++
		return op{run: &r}, true
	}}, nil
}
