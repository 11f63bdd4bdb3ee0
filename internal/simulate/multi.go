package simulate

import (
	"context"
	"fmt"
	"math"

	"bsmp/internal/analytic"
	"bsmp/internal/cost"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/perm"
)

// MultiOptions configure the multiprocessor simulations; the zero value
// is the paper's full scheme. One struct serves every dimension (the
// aliases Multi2Options/Multi3Options keep the historical names): d = 1
// reads StripWidth and NoCooperate, d = 2/3 read SpanOverride, all read
// NoRearrange. The ablation flags disable individual mechanisms to
// measure how load-bearing each one is (DESIGN.md § 6).
type MultiOptions struct {
	// StripWidth overrides the d = 1 strip width s; 0 selects the
	// paper's optimum s* (rounded to a power of two dividing n/p).
	StripWidth int
	// SpanOverride fixes the d = 2/3 kernel span σ; 0 lets the model
	// pick the cost-minimizing power of two in [2, (n/p)^(1/d)].
	SpanOverride int
	// NoRearrange skips the memory rearrangement: Regime 1 relocations
	// and cooperating-mode exchanges then occur at the original
	// Θ(n^(1/d))-scale distances instead of Θ((n/p)^(1/d)).
	NoRearrange bool
	// NoCooperate disables the d = 1 cooperating execution mode:
	// diamonds sitting across strip boundaries are executed solo by one
	// processor, which must pull the remote half of the preboundary —
	// s·m memory words instead of s broadcast words.
	NoCooperate bool
	// Theta is the Θ-model bounded delay ratio: when > 0, the schedule
	// is played by the event-driven engine (internal/sched) with every
	// distance-proportional charge stretched by a seeded factor in
	// [1, Θ]. 0 selects the lockstep barrier engine; 1 runs the event
	// engine with every factor exactly 1, reproducing the lockstep
	// virtual times bit-identically. Values in (0, 1), NaN and Inf are
	// rejected with a typed ParamError.
	Theta float64
	// ThetaSeed seeds the Θ-model delay draws. Runs with equal
	// (Theta, ThetaSeed) are deterministic, and a Θ-sweep at a fixed
	// seed varies only the bound, never the draw — which is what makes
	// the measured slowdown monotone non-decreasing in Θ.
	ThetaSeed uint64
	// Faults is the static fault density for the multi-faulty scheme:
	// the fraction of processors and memory cells sampled dead at
	// construction (topology.FaultMask). Must lie in [0, 1); 0 means
	// fault-free. The fault-free schemes reject a nonzero value with a
	// typed ParamError — faults change the planned distances, so a
	// silent ignore would misattribute every charge.
	Faults float64
	// FaultSeed seeds the fault draws. Sampling is threshold-based, so
	// a density sweep at a fixed seed has NESTED dead sets and the
	// measured extra slowdown is monotone in Faults (E-FAULT pins this).
	FaultSeed uint64

	// faultDistMul and faultMemMul are the planning stretch factors the
	// multi-faulty scheme derives from its sampled mask (DetourFactor,
	// MemOverhead) and threads into the cost formulas below; 0 means
	// unset and reads as 1. Unexported: callers select faults via
	// Faults/FaultSeed, never by injecting raw multipliers.
	faultDistMul float64
	faultMemMul  float64
}

// faultMuls resolves the fault stretch factors, mapping the zero value
// to exactly 1.0 — every fault-free cost formula multiplies by these,
// and x * 1.0 == x in IEEE arithmetic, so the fault-free virtual times
// stay bit-identical (the golden contract).
func (o MultiOptions) faultMuls() (distMul, memMul float64) {
	distMul, memMul = o.faultDistMul, o.faultMemMul
	if distMul == 0 {
		distMul = 1
	}
	if memMul == 0 {
		memMul = 1
	}
	return distMul, memMul
}

// delayModel builds the cost.DelayModel the options select: nil for the
// lockstep engine (Theta 0), a seeded ThetaModel otherwise. Callers
// validate Theta first (validateTheta), so construction cannot fail.
func (o MultiOptions) delayModel() cost.DelayModel {
	if o.Theta == 0 {
		return nil
	}
	dm, err := cost.NewThetaModel(o.Theta, o.ThetaSeed)
	if err != nil {
		panic(err) // unreachable behind validateTheta
	}
	return dm
}

// Multi2Options configures the d = 2 multiprocessor model.
type Multi2Options = MultiOptions

// Multi3Options configures the d = 3 multiprocessor model.
type Multi3Options = MultiOptions

// MultiResult extends Result with the multiprocessor-specific accounting.
// One struct serves every dimension (aliases Multi2Result/Multi3Result):
// StripWidth/PrepTime/Domains are d = 1 fields, Span is d = 2/3.
type MultiResult struct {
	Result
	// PrepTime is the one-time rearrangement cost (the paper amortizes
	// it over repeated simulation cycles; it is excluded from Time).
	PrepTime cost.Time
	// StripWidth is the d = 1 strip width s actually used.
	StripWidth int
	// Span is the d = 2/3 kernel span σ actually used.
	Span int
	// Regime1Levels is the number of relocation levels executed.
	Regime1Levels int
	// Domains is the number of D(p·s) domains processed in Regime 2.
	Domains int
	// Phases attributes the schedule's makespan and charges to the
	// rearrange / regime1 / regime2-exec / regime2-exchange phases; its
	// entry times sum to Time + PrepTime (up to float regrouping). Nil
	// for the degenerate p = 1 fallback, which runs no phased schedule.
	Phases cost.PhaseBreakdown
	// Faults carries the fault-mask accounting of a multi-faulty run;
	// nil for every fault-free scheme.
	Faults *FaultReport
}

// Multi2Result reports the d = 2 multiprocessor run.
type Multi2Result = MultiResult

// Multi3Result reports the d = 3 multiprocessor run.
type Multi3Result = MultiResult

// multiGeomD1 is the d = 1 geometry spec: the Theorem 4 scheme. The
// span-model fields are nil because the d = 1 planner below implements
// the paper's explicit construction (strips, π rearrangement, diamond
// domains) rather than the d-generic span model; it draws the kernel
// machinery, κ normalization and face size from the spec.
var multiGeomD1 = &multiGeom{
	d:           1,
	kernelFloor: 4, // a width-1 strip: one vertex per step, in place
	calSpan:     func(s int) int { return s },
	calProg: func(_ int, prog network.Program) network.Program {
		// The kernel is NOT program-independent: prog.Address picks the
		// memory cell touched per vertex and an optional MemUser shrinks
		// the relocated image from m to m' words, so d = 1 calibrates on
		// the caller's program (TestDiamondKernelProgramDependence).
		return prog
	},
	calRun: func(ctx context.Context, cal, m int, prog network.Program) (Result, error) {
		// An s × s computation holds about two diamonds' worth of
		// vertices; the kernel is half its measured time.
		return BlockedD1Context(ctx, cal, m, cal, 0, prog)
	},
	distRed:    func(pf float64) float64 { return pf },
	faceSize:   func(sf float64) float64 { return sf },
	theoryExec: func(sf, mf float64) float64 { return sf * sf / 2 * math.Min(sf, mf*analytic.Log(sf/mf)) },
}

// diamondKernel measures the time to execute one diamond D(s) with memory
// density m — the d = 1 entry of the engine's unified kernel cache.
func diamondKernel(ctx context.Context, s, m int, prog network.Program) (float64, error) {
	return multiGeomD1.kernel(ctx, s, m, prog)
}

// MultiD1 runs Theorem 4's simulation of M1(n, n, m) on M1(n, p, m):
//
//  1. the initial data, viewed as q = n/s strips of width s, is
//     rearranged by π = π2·π1 so that originally adjacent strips are
//     either adjacent or exactly q/p strips apart (perm package);
//  2. Regime 1 relocates data down log2(n/(p·s)) levels of the diamond
//     recursion, each level costing Θ(n²m/p²) wall time thanks to the
//     p-fold distance reduction the rearrangement bought;
//  3. Regime 2 processes the Θ((n/ps)²) domains of type D(p·s)
//     sequentially; each takes 2p-1 stages in which every processor
//     executes one diamond D(s) of its zig-zag band (Figure 2) — solo on
//     odd stages, cooperating with a neighbor on even stages, exchanging
//     the Θ(s) broadcast values that cross the shared diagonal as a
//     message over distance n/p.
//
// Fidelity: the guest state advances functionally (exactly); costs are
// charged per phase, with the per-diamond execution kernel measured by a
// real BlockedD1 run of the same (s, m) geometry (per-address fidelity),
// and the relocation/exchange phases charged at the word-and-distance
// granularity derived in the comments below. See DESIGN.md's fidelity
// ladder.
func MultiD1(n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	return MultiD1Context(context.Background(), n, p, m, steps, prog, opts)
}

// MultiD1Context is MultiD1 under a context: the kernel calibration run,
// the span search, and the functional guest replay all poll cancellation
// cooperatively, and replay progress is reported to any attached
// Progress. Checks are host-side only, so a never-cancelled run's
// virtual times are bit-identical to MultiD1's.
func MultiD1Context(ctx context.Context, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	if err := validateMulti(n, p, m, steps, opts.Theta); err != nil {
		return MultiResult{}, err
	}
	if p == 1 {
		// Degenerate case: Theorem 3's machinery. A single processor
		// exchanges no messages, so the delay model is immaterial.
		r, err := BlockedD1Context(ctx, n, m, steps, 0, prog)
		return MultiResult{Result: r, StripWidth: n}, err
	}
	ec := newExecCtx(ctx)
	s := opts.StripWidth
	if s <= 0 {
		s = analytic.RoundToPow2Divisor(analytic.OptimalS(n, m, p), n/p)
	}
	if s < 1 || (n/p)%s != 0 {
		return MultiResult{}, fmt.Errorf("simulate: strip width %d must divide n/p = %d", s, n/p)
	}
	q := n / s
	pi := perm.New(q, p)

	nf, pf, mf, sf := float64(n), float64(p), float64(m), float64(s)

	// The per-diamond execution kernel is measured from a real Theorem 3
	// execution, which carries the machinery's constant factor (stack
	// staging, read+write per moved word). The relocation and exchange
	// phases below are derived as word·distance counts with unit
	// constants; to keep the phases commensurate — as they would be if
	// one machine executed all of them — they are scaled by the kernel's
	// measured-over-theoretical constant κ.
	kernel, err := diamondKernel(ctx, s, m, prog)
	if err != nil {
		return MultiResult{}, err
	}
	kappa := kernel / multiGeomD1.theoryExec(sf, mf)
	if kappa < 1 {
		kappa = 1
	}

	// The rearranged relocation/exchange distance is certified by the
	// permutation itself: originally adjacent strips end up at most
	// MaxAdjacentDisplacement = q/p strips apart (property 1), i.e.
	// (q/p)·s = n/p guest distance — the p-fold reduction from the raw
	// Θ(n) scale. The ablated scheme forgoes it.
	//
	// Under a fault mask, every distance-proportional charge stretches
	// by the mask's detour bound and every image traversal by its memory
	// packing overhead; both factors are exactly 1.0 fault-free, keeping
	// the fault-free times bit-identical (see faultMuls).
	distMul, memMul := opts.faultMuls()
	relocDist := float64(pi.MaxAdjacentDisplacement()*s) * distMul
	if opts.NoRearrange {
		relocDist = nf * distMul
	}

	// Phase 1 quantities: Regime 1 relocation levels. Level k moves
	// 2^k·n·m words at geometric distance relocDist/2^k: the 2^k factors
	// cancel, so every level costs n·m·relocDist/p wall time per
	// processor — the paper's Θ(n²m/p²) with rearrangement. (A word
	// moved across guest-volume distance D occupies D·m memory
	// addresses, and f(x) = x/m, so the per-word cost is D independent
	// of m.)
	levels := 0
	if s < n/p {
		levels = int(math.Round(math.Log2(nf / (pf * sf))))
	}
	perLevelPerProc := kappa * nf * (mf * memMul) * relocDist / pf
	regime1 := make([]float64, levels)
	for k := range regime1 {
		regime1[k] = perLevelPerProc
	}

	// Phase 2 quantities: the (n/ps)² domains of D(p·s), 2p-1 stages
	// each: p-1 solo, p cooperating.
	cells := lattice.DiamondGrid(n, steps+1, p*s)
	numDomains := len(cells)
	exchDist := float64(pi.MaxAdjacentDisplacement()*s) * distMul
	if opts.NoRearrange {
		exchDist = nf / 2 * distMul
	}
	solo := float64(p - 1)
	coop := float64(p)
	var stageExtra float64
	exchCat := cost.Message
	if opts.NoCooperate {
		// Solo execution of shared diamonds: pull s·m remote words
		// through memory, each paying the exchange distance.
		stageExtra = kappa * multiGeomD1.faceSize(sf) * (mf * memMul) * exchDist
		exchCat = cost.Transfer
	} else {
		// Exchange Θ(s) broadcast values over the link, each paying
		// the full distance (no pipelining, as in the paper's
		// per-item accounting "in time O(s·n/p)").
		stageExtra = kappa * multiGeomD1.faceSize(sf) * exchDist
	}

	bank, prep := playScheduleAuto(ec.tr, p, multiSchedule{
		// Phase 0: rearrangement. n·m words move distance Θ(n) with
		// p-fold parallelism: per processor, (n·m/p) words at average
		// distance n/2 — stretched by the fault detour and packing
		// factors like every other transfer.
		prep:         kappa * nf * (mf * memMul) / pf * (nf * distMul) / 2,
		hasPrep:      true,
		regime1:      regime1,
		domains:      numDomains,
		exec:         (solo + coop) * kernel,
		exch:         coop * stageExtra,
		exchCat:      exchCat,
		roundBarrier: true,
	}, opts.delayModel())
	elapsed := bank.MaxNow() - prep

	// Functional execution (exact): the schedule above is a topological
	// execution of the same dag, so the state evolution is the guest's.
	outs, mems, err := replayGuest(ec, 1, n, m, steps, prog)
	if err != nil {
		return MultiResult{}, err
	}

	return MultiResult{
		Result: Result{
			Outputs:  outs,
			Memories: mems,
			Time:     elapsed,
			Ledger:   bank.Ledgers(),
			Steps:    steps,
		},
		PrepTime:      prep,
		StripWidth:    s,
		Regime1Levels: levels,
		Domains:       numDomains,
		Phases:        bank.Phases(),
	}, nil
}

// MultiD1Cycles simulates cycles·n guest steps by repeating the n-step
// simulation of MultiD1 (the paper's "for larger values of Tn, it is
// sufficient to repeat the n-step simulation ⌈Tn/n⌉ times"), so the
// one-time rearrangement cost amortizes: the reported Time includes the
// preprocessing once plus cycles executions, and the effective slowdown
// converges to the steady-state (n/p)·A(n, m, p) as cycles grows — "its
// cost gives a contribution to the slowdown that vanishes as the number
// of simulated steps increases" (Section 4.2).
func MultiD1Cycles(n, p, m, cycles int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	return MultiD1CyclesContext(context.Background(), n, p, m, cycles, prog, opts)
}

// MultiD1CyclesContext is MultiD1Cycles under a context; see
// MultiD1Context for the cancellation and progress contract.
func MultiD1CyclesContext(ctx context.Context, n, p, m, cycles int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	if cycles < 1 {
		return MultiResult{}, fmt.Errorf("simulate: cycles %d < 1", cycles)
	}
	one, err := MultiD1Context(ctx, n, p, m, n, prog, opts)
	if err != nil {
		return MultiResult{}, err
	}
	total := one.PrepTime + cost.Time(cycles)*one.Time
	outs, mems, err := replayGuest(newExecCtx(ctx), 1, n, m, cycles*n, prog)
	if err != nil {
		return MultiResult{}, err
	}
	res := one
	res.Outputs = outs
	res.Memories = mems
	res.Time = total
	res.Steps = cycles * n
	return res, nil
}

// multiByDim indexes the multiprocessor engines by mesh dimension: the
// one dispatch the multi, multi-theta and multi-faulty schemes share.
var multiByDim = [...]func(ctx context.Context, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error){
	1: MultiD1Context, 2: MultiD2Context, 3: MultiD3Context,
}

// validateMulti is the preamble every multiprocessor entry shares:
// p | n, m >= 1, steps >= 1, and a valid delay ratio Θ.
func validateMulti(n, p, m, steps int, theta float64) error {
	if p < 1 || n < p || n%p != 0 {
		return fmt.Errorf("simulate: need p | n, got n=%d p=%d", n, p)
	}
	if m < 1 {
		return perr("multi", "m", "memory density must be >= 1", m)
	}
	if steps < 1 {
		return perr("multi", "steps", "guest step count must be >= 1", steps)
	}
	if e := validateTheta("multi", theta); e != nil {
		return e
	}
	return nil
}

// replayGuest advances the guest functionally (exactly) for steps steps,
// traced as one "replay" span: the output half of every multiprocessor
// entry, whose times come from the charged schedule instead.
func replayGuest(ec *execCtx, d, n, m, steps int, prog network.Program) ([]hram.Word, [][]hram.Word, error) {
	replay := ec.tr.Start("replay")
	outs, mems, err := network.RunGuestPureHook(d, n, m, steps, prog, ec.hook())
	if err != nil {
		return nil, nil, err
	}
	if replay != nil {
		replay.SetAttr("vertices", float64(n)*float64(steps))
		replay.End()
	}
	return outs, mems, nil
}
