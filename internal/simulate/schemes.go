package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/dag"
	"bsmp/internal/guest"
	"bsmp/internal/network"
	"bsmp/internal/obs"
)

// SchemeConfig carries the per-run knobs a registered scheme may consume.
// The zero value selects every scheme's default (paper-optimal) settings.
type SchemeConfig struct {
	// Leaf is the uniprocessor recursion leaf (UniDC leafSize, blocked
	// leafWidth/leafSpan); 0 selects the scheme default.
	Leaf int
	// Multi configures the multiprocessor schemes (strip/span overrides
	// and mechanism ablations).
	Multi MultiOptions
}

// Scheme is a named simulation algorithm from the paper's ladder,
// runnable through a single signature. Uniprocessor schemes require
// p = 1; unidc additionally requires m = 1 (Theorems 2 and 5) and a
// program with a dag view. Every scheme returns a MultiResult; the
// multiprocessor accounting fields are zero for uniprocessor schemes.
type Scheme struct {
	// Name is the registry key: "naive", "unidc", "blocked",
	// "blocked-analytic", "multi", "multi-theta" or "multi-faulty".
	Name string
	// D is the mesh dimension the entry serves.
	D int
	// Multiproc reports whether the scheme exploits p > 1.
	Multiproc bool
	// Description is a one-line summary with the scheme's slowdown.
	Description string
	// Validate checks the scheme-specific parameter constraints beyond
	// the common ones (positivity, p <= n, p | n, overflow); nil means
	// no extra constraints. cfg carries the per-run knobs a scheme may
	// additionally constrain (the multi-theta delay ratio Θ).
	// ValidateParams and Run both consult it, so no tuple reachable
	// through the registry can panic an internal constructor.
	Validate func(n, p, m, steps int, cfg SchemeConfig) *ParamError
	// Run executes the scheme on an n-node guest with density m for
	// steps steps on p host processors, under ctx: every scheme polls
	// cancellation cooperatively and reports progress to any attached
	// Progress (see WithProgress). The registry wraps every entry so Run
	// validates its parameters before dispatching.
	Run func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error)
}

// dagView extracts the dag.Program behind a network program. No type can
// implement both interfaces directly (their Step methods conflict), so
// the dag view lives on the wrapped guest of an AsNetwork adapter.
func dagView(prog network.Program) (dag.Program, bool) {
	if an, ok := prog.(guest.AsNetwork); ok {
		if dp, ok := an.G.(dag.Program); ok {
			return dp, true
		}
	}
	return nil, false
}

// withValidation wraps a registry entry's Run so it checks the common
// and scheme-specific constraints before dispatching — the panic-free
// boundary holds even for callers that grab a Scheme and invoke Run
// directly instead of going through RunScheme.
func withValidation(s Scheme) Scheme {
	inner := s.Run
	s.Run = func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
		if e := validateCommon(s.Name, s.D, n, p, m, steps); e != nil {
			return MultiResult{}, e
		}
		if s.Validate != nil {
			if e := s.Validate(n, p, m, steps, cfg); e != nil {
				return MultiResult{}, e
			}
		}
		return inner(ctx, n, p, m, steps, prog, cfg)
	}
	return s
}

func naiveScheme(d int) Scheme {
	return Scheme{
		Name: "naive", D: d, Multiproc: true,
		Description: "step-by-step mimicry (Prop. 1), slowdown Θ((n/p)^(1+1/d))",
		Validate: func(n, p, m, steps int, _ SchemeConfig) *ParamError {
			return validateNaiveShape(d, n, p)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, _ SchemeConfig) (MultiResult, error) {
			r, err := NaiveContext(ctx, d, n, p, m, steps, prog)
			return MultiResult{Result: r}, err
		},
	}
}

func unidcScheme(d int) Scheme {
	return Scheme{
		Name: "unidc", D: d, Multiproc: false,
		Description: "uniprocessor divide-and-conquer for m = 1 (Thms. 2/5), slowdown Θ(n log n)",
		Validate: func(n, p, m, steps int, _ SchemeConfig) *ParamError {
			if p != 1 {
				return perr("unidc", "p", "uniprocessor scheme requires p = 1", p)
			}
			if m != 1 {
				return perr("unidc", "m", "needs m=1 (Theorems 2 and 5)", m)
			}
			return shapeError("unidc", "n", d, n)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			dp, ok := dagView(prog)
			if !ok {
				return MultiResult{}, fmt.Errorf("simulate: scheme unidc needs a program with a dag view, got %T", prog)
			}
			r, err := UniDCContext(ctx, d, n, steps, cfg.Leaf, dp)
			return MultiResult{Result: r}, err
		},
	}
}

func blockedScheme(d int) Scheme {
	return Scheme{
		Name: "blocked", D: d, Multiproc: false,
		Description: "blocked uniprocessor scheme for general m (Thm. 3), slowdown Θ(n·min(n, m·Log(n/m)))",
		Validate:    uniprocOnly("blocked", d),
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			r, err := blockedContext(ctx, d, n, m, steps, cfg.Leaf, prog)
			return MultiResult{Result: r}, err
		},
	}
}

// analyticScheme registers the d = 1 analytic fast path: same recursion
// and charge model as "blocked", but costs are computed without machine
// state and congruent subtrees replay as summed deltas, so volumes of
// 10^9+ vertices finish in seconds. Results carry no guest outputs
// (Outputs/Memories nil) — callers validate against the work/span laws
// and the Theorem 3 predictions instead of output comparison.
func analyticScheme() Scheme {
	return Scheme{
		Name: "blocked-analytic", D: 1, Multiproc: false,
		Description: "analytic replay of the blocked d = 1 recursion: exact model costs at huge n, no guest outputs",
		Validate:    uniprocOnly("blocked-analytic", 1),
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			r, err := AnalyticBlockedD1Context(ctx, n, m, steps, cfg.Leaf, prog)
			return MultiResult{Result: r}, err
		},
	}
}

func multiScheme(d int) Scheme {
	return Scheme{
		Name: "multi", D: d, Multiproc: true,
		Description: "multiprocessor rearrangement + cooperating mode (Thm. 4 / Thm. 1), slowdown Θ((n/p)·A(n, m, p))",
		Validate: func(n, p, m, steps int, cfg SchemeConfig) *ParamError {
			if cfg.Multi.Theta != 0 {
				return perrF("multi", "theta", "lockstep scheme takes no delay ratio; use scheme multi-theta", cfg.Multi.Theta)
			}
			if cfg.Multi.Faults != 0 {
				return perrF("multi", "faults", "fault-free scheme takes no fault density; use scheme multi-faulty", cfg.Multi.Faults)
			}
			return shapeError("multi", "n", d, n)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			return multiByDim[d](ctx, n, p, m, steps, prog, cfg.Multi)
		},
	}
}

// multiThetaScheme registers the Θ-model variant of multi: the same
// Theorem 4 / Theorem 1 schedule, played by the event-driven scheduler
// core with every distance-proportional charge stretched by a seeded
// delay factor in [1, Θ] (cfg.Multi.Theta, default 1; cfg.Multi.ThetaSeed
// picks the draw). At Θ = 1 every factor is exactly 1 and the virtual
// times are bit-identical to the lockstep multi scheme — the golden
// tests pin this — so the lockstep results are the Θ → 1 limit of this
// scheme, not a separate model.
func multiThetaScheme(d int) Scheme {
	return Scheme{
		Name: "multi-theta", D: d, Multiproc: true,
		Description: "event-driven Θ-model multi: seeded delays in [dist, Θ·dist]; Θ = 1 recovers lockstep exactly",
		Validate: func(n, p, m, steps int, cfg SchemeConfig) *ParamError {
			if e := validateTheta("multi-theta", cfg.Multi.Theta); e != nil {
				return e
			}
			if cfg.Multi.Faults != 0 {
				return perrF("multi-theta", "faults", "fault-free scheme takes no fault density; use scheme multi-faulty", cfg.Multi.Faults)
			}
			return shapeError("multi-theta", "n", d, n)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			opts := cfg.Multi
			if opts.Theta == 0 {
				opts.Theta = 1
			}
			return multiByDim[d](ctx, n, p, m, steps, prog, opts)
		},
	}
}

// Schemes is the registry of named simulation schemes, one entry per
// (algorithm, dimension) the repository implements: naive (d = 1, 2),
// unidc and blocked and multi and multi-theta and multi-faulty
// (d = 1, 2, 3). Callers — bsmp.RunScheme, cmd/tradeoff,
// cmd/experiments, the E-REG experiment — select simulations by name
// and dimension instead of hard-wiring function calls.
var Schemes = []Scheme{
	withValidation(naiveScheme(1)), withValidation(naiveScheme(2)),
	withValidation(unidcScheme(1)), withValidation(unidcScheme(2)), withValidation(unidcScheme(3)),
	withValidation(blockedScheme(1)), withValidation(blockedScheme(2)), withValidation(blockedScheme(3)),
	withValidation(analyticScheme()),
	withValidation(multiScheme(1)), withValidation(multiScheme(2)), withValidation(multiScheme(3)),
	withValidation(multiThetaScheme(1)), withValidation(multiThetaScheme(2)), withValidation(multiThetaScheme(3)),
	withValidation(multiFaultyScheme(1)), withValidation(multiFaultyScheme(2)), withValidation(multiFaultyScheme(3)),
}

// SchemeByName returns the registered scheme for (name, d).
func SchemeByName(name string, d int) (Scheme, error) {
	for _, s := range Schemes {
		if s.Name == name && s.D == d {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("simulate: no scheme %q for d=%d", name, d)
}

// RunScheme looks up (name, d) in the registry and runs it under
// context.Background().
func RunScheme(name string, d, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
	return RunSchemeContext(context.Background(), name, d, n, p, m, steps, prog, cfg)
}

// RunSchemeContext looks up (name, d) in the registry and runs it under
// ctx: the selected scheme polls cancellation cooperatively at its
// recursion/phase/step boundaries, reports progress to any Progress
// attached with WithProgress, and records its span timeline into any
// Tracer attached with obs.WithTracer — the run gets one
// "scheme:<name>" root span whose "vtime" attribute is the run's full
// virtual makespan (Time + PrepTime).
func RunSchemeContext(ctx context.Context, name string, d, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
	s, err := SchemeByName(name, d)
	if err != nil {
		return MultiResult{}, err
	}
	sp := obs.FromContext(ctx).Start("scheme:" + name)
	if sp != nil {
		sp.SetAttr("d", float64(d))
		sp.SetAttr("n", float64(n))
		sp.SetAttr("p", float64(p))
		sp.SetAttr("m", float64(m))
		sp.SetAttr("steps", float64(steps))
		if cfg.Multi.Theta != 0 {
			sp.SetAttr("theta", cfg.Multi.Theta)
		}
	}
	res, err := s.Run(ctx, n, p, m, steps, prog, cfg)
	if sp != nil {
		if err == nil {
			sp.SetAttr("vtime", float64(res.Time+res.PrepTime))
		}
		sp.End()
	}
	return res, err
}
