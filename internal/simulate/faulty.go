package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// This file lands the fault-masked multiprocessor regime on the
// topology layer: the multi-faulty scheme runs the paper's Theorem 4 /
// Theorem 1 machinery on a mesh decorated with a static, seeded fault
// mask (topology.FaultMask — dead processors and dead memory cells
// fixed at construction). The scheme plans around the faults rather
// than modeling per-message routing:
//
//   - the surviving machine is operated as the largest fault-free
//     sub-configuration: pEff = the largest d-shaped divisor of n not
//     exceeding the live processor count, so the existing rearrangement
//     machinery applies verbatim — MultiD1 builds its π = π2·π1 strip
//     permutation (internal/perm) for q = n/s strips over pEff
//     processors, which is exactly the Regime-1 rearrangement "around"
//     the dead modules: the image simply never lands on them;
//   - every distance-proportional charge is stretched by the mask's
//     detour bound (DetourFactor: routes steering around dead regions
//     pay at most 1 + 2·MaxDetour extra hops per straight hop);
//   - every memory-image traversal is stretched by the packing
//     overhead (MemOverhead: a module that lost D of its C cells holds
//     its share in C−D cells).
//
// Both stretch factors are exactly 1.0 at density 0, and pEff = p when
// nothing is dead (p is a d-shaped divisor of n by validation), so a
// zero-density multi-faulty run is bit-identical to the lockstep multi
// scheme — the golden tests pin this. The degenerate pEff = 1 case
// falls back to the uniprocessor Theorem 3 machinery like multi does;
// that fallback runs no message schedule, so the stretch factors have
// nothing to multiply and are intentionally not applied there.

// FaultReport carries the fault-mask accounting of a multi-faulty run.
type FaultReport struct {
	// Density and Seed echo the sampled fault configuration.
	Density float64 `json:"density"`
	Seed    uint64  `json:"seed"`
	// DeadProcs counts dead processors (a node whose cells all died is
	// counted here too); LiveProcs = p − DeadProcs.
	DeadProcs int `json:"dead_procs"`
	LiveProcs int `json:"live_procs"`
	// DeadCells counts dead memory cells on live nodes.
	DeadCells int `json:"dead_cells"`
	// EffectiveP is the planned sub-configuration size: the largest
	// d-shaped divisor of n not exceeding LiveProcs.
	EffectiveP int `json:"effective_p"`
	// DistStretch and MemStretch are the planning factors applied to
	// distance-proportional and image-traversal charges (1.0 = none).
	DistStretch float64 `json:"dist_stretch"`
	MemStretch  float64 `json:"mem_stretch"`
}

// faultPlan is the planning outcome of sampling a fault mask: the
// effective processor count and the two stretch factors the cost
// formulas consume.
type faultPlan struct {
	mask    *topology.FaultMask
	pEff    int
	distMul float64
	memMul  float64
}

// planFaults samples the fault mask for a (d, n, p, m) host at the
// given density and seed and derives the plan. The caller validates the
// tuple (d-shaped n and p, p | n, density in [0, 1)) first; the only
// error escaping a validated tuple is a mask that leaves no live
// processor.
func planFaults(d, n, p, m int, density float64, seed uint64) (faultPlan, error) {
	base := topology.NewMesh(d, n, p)
	mask, err := topology.NewFaultMask(base, density, seed, m*(n/p))
	if err != nil {
		return faultPlan{}, fmt.Errorf("simulate: %w", err)
	}
	return faultPlan{
		mask:    mask,
		pEff:    largestShapedDivisor(d, n, mask.Alive()),
		distMul: mask.DetourFactor(),
		memMul:  mask.MemOverhead(),
	}, nil
}

// report renders the plan for the result's fault accounting.
func (fp faultPlan) report() *FaultReport {
	return &FaultReport{
		Density:     fp.mask.Density(),
		Seed:        fp.mask.Seed(),
		DeadProcs:   fp.mask.DeadProcs(),
		LiveProcs:   fp.mask.Alive(),
		DeadCells:   fp.mask.TotalDeadCells(),
		EffectiveP:  fp.pEff,
		DistStretch: fp.distMul,
		MemStretch:  fp.memMul,
	}
}

// largestShapedDivisor returns the largest divisor of n that is at most
// limit and a d-shaped processor count (any divisor for d = 1, a
// perfect square for d = 2, a cube for d = 3). At least 1 always
// qualifies, so a plan exists whenever one processor survives.
func largestShapedDivisor(d, n, limit int) int {
	if limit > n {
		limit = n
	}
	for k := limit; k > 1; k-- {
		if n%k != 0 {
			continue
		}
		if d == 2 && !isSquare(k) {
			continue
		}
		if d == 3 && !isCube(k) {
			continue
		}
		return k
	}
	return 1
}

// multiFaultyScheme registers the fault-masked variant of multi for one
// dimension; see the file comment for the regime. Like multi it is
// lockstep-only (Θ belongs to multi-theta), and it additionally
// requires a d-shaped p so the fault mask samples over the actual host
// mesh geometry.
func multiFaultyScheme(d int) Scheme {
	return Scheme{
		Name: "multi-faulty", D: d, Multiproc: true,
		Description: "multi on a statically fault-masked mesh: largest live sub-mesh, charges stretched by detour and packing bounds",
		Validate: func(n, p, m, steps int, cfg SchemeConfig) *ParamError {
			if cfg.Multi.Theta != 0 {
				return perrF("multi-faulty", "theta", "lockstep scheme takes no delay ratio; use scheme multi-theta", cfg.Multi.Theta)
			}
			if e := validateFaults("multi-faulty", cfg.Multi.Faults); e != nil {
				return e
			}
			if e := shapeError("multi-faulty", "n", d, n); e != nil {
				return e
			}
			return shapeError("multi-faulty", "p", d, p)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			plan, err := planFaults(d, n, p, m, cfg.Multi.Faults, cfg.Multi.FaultSeed)
			if err != nil {
				return MultiResult{}, err
			}
			opts := cfg.Multi
			opts.Faults, opts.FaultSeed = 0, 0 // consumed: the plan carries them
			opts.faultDistMul, opts.faultMemMul = plan.distMul, plan.memMul
			res, err := multiByDim[d](ctx, n, plan.pEff, m, steps, prog, opts)
			if err != nil {
				return MultiResult{}, err
			}
			res.Faults = plan.report()
			return res, nil
		},
	}
}
