package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"net/http"

	"bsmp"
	"bsmp/internal/cost"
	"bsmp/internal/serve"
)

// guestFor builds the guest program a request names, on the grid
// geometry its dimension requires, as the daemon does.
func guestFor(req serve.RunRequest) bsmp.Program {
	var g interface {
		InitAt(x, y int, mem []bsmp.Word) bsmp.Word
		Address(node, step, memSize int) int
		Step2(node, step int, cell bsmp.Word, prev []bsmp.Word) (bsmp.Word, bsmp.Word)
	}
	g = bsmp.MixCA{Seed: req.Seed}
	if req.Guest == "rule90" {
		g = bsmp.Rule90{Seed: req.Seed}
	}
	side := 0
	switch req.D {
	case 2:
		for side*side < req.N {
			side++
		}
		return bsmp.AsNetwork{G: g, Side: side}
	case 3:
		for side*side*side < req.N {
			side++
		}
		return bsmp.AsNetwork{G: g, CubeSide: side}
	}
	return bsmp.AsNetwork{G: g}
}

// compute runs req in process through the public scheme registry.
func compute(ctx context.Context, req serve.RunRequest) (bsmp.MultiResult, error) {
	cfg := bsmp.SchemeConfig{Leaf: req.Config.Leaf, Multi: bsmp.MultiOptions{
		StripWidth: req.Config.StripWidth, SpanOverride: req.Config.SpanOverride,
		NoRearrange: req.Config.NoRearrange, NoCooperate: req.Config.NoCooperate,
		Theta: req.Config.Theta, ThetaSeed: req.Config.ThetaSeed,
		Faults: req.Config.Faults, FaultSeed: req.Config.FaultSeed,
	}}
	return bsmp.RunSchemeContext(ctx, req.Scheme, req.D, req.N, req.P, req.M, req.Steps, guestFor(req), cfg)
}

// sameAnswer checks a served response against an in-process result:
// time, prep_time and the ledger must agree bit for bit.
func sameAnswer(got *serve.RunResponse, want bsmp.MultiResult) error {
	ledger := map[string]float64{}
	for _, c := range cost.Categories() {
		if t := want.Ledger.Total(c); t != 0 {
			ledger[c.String()] = t
		}
	}
	switch {
	case got.Time != float64(want.Time):
		return fmt.Errorf("time %v, in process %v", got.Time, want.Time)
	case got.PrepTime != float64(want.PrepTime):
		return fmt.Errorf("prep_time %v, in process %v", got.PrepTime, want.PrepTime)
	case !maps.Equal(got.Ledger, ledger):
		return fmt.Errorf("ledger %v, in process %v", got.Ledger, ledger)
	}
	return nil
}

// sameServed checks that two served answers for one tuple agree.
func sameServed(a, b *serve.RunResponse) bool {
	return a.Time == b.Time && a.PrepTime == b.PrepTime && maps.Equal(a.Ledger, b.Ledger)
}

// tupleKey identifies a request's simulation for matching answers.
func tupleKey(r serve.RunRequest) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%d|%+v", r.Scheme, r.D, r.N, r.P, r.M, r.Steps, r.Guest, r.Seed, r.Config)
}

// rowRequest rebuilds a sweep row's tuple from the echo in its result.
func rowRequest(res *serve.RunResponse) serve.RunRequest {
	return serve.RunRequest{Scheme: res.Scheme, D: res.D, N: res.N, P: res.P, M: res.M,
		Steps: res.Steps, Guest: res.Guest, Seed: res.Seed}
}

// goldens are the pinned virtual times of the engine's golden tests
// (internal/simulate/golden_test.go); NaN leaves PrepTime unchecked.
var goldens = []struct {
	req        serve.RunRequest
	time, prep float64
}{
	{serve.RunRequest{Scheme: "multi", D: 1, N: 64, P: 4, M: 16, Steps: 16, Seed: 9}, 79686.0625, 45232},
	{serve.RunRequest{Scheme: "multi", D: 2, N: 256, P: 4, M: 8, Steps: 8, Seed: 9}, 121540.75244594147, math.NaN()},
	{serve.RunRequest{Scheme: "multi", D: 3, N: 512, P: 8, M: 4, Steps: 8, Seed: 9}, 151296.39378136813, math.NaN()},
}

// checkGoldens requests every golden tuple through the daemon.
func checkGoldens(ctx context.Context, c *http.Client, base string) error {
	for _, g := range goldens {
		req := g.req
		r := do(ctx, c, base, op{run: &req})
		if r.err != nil {
			return fmt.Errorf("golden %s d=%d: %w", req.Scheme, req.D, r.err)
		}
		if r.run.Time != g.time || (!math.IsNaN(g.prep) && r.run.PrepTime != g.prep) {
			return fmt.Errorf("golden %s d=%d: time %v prep_time %v, want %v and %v",
				req.Scheme, req.D, r.run.Time, r.run.PrepTime, g.time, g.prep)
		}
	}
	return nil
}

// verify recomputes each (request, served answer) pair in process and
// fails on the first disagreement.
func verify(ctx context.Context, pairs []served) error {
	for _, p := range pairs {
		res, err := compute(ctx, p.req)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", tupleKey(p.req), err)
		}
		if err := sameAnswer(p.resp, res); err != nil {
			return fmt.Errorf("served %s: %w", tupleKey(p.req), err)
		}
	}
	return nil
}

// served pairs a request with the daemon's answer to it.
type served struct {
	req  serve.RunRequest
	resp *serve.RunResponse
}
