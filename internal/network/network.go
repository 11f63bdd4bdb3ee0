// Package network implements the parallel machines Md(n, p, m) of
// Definition 2 of Bilardi & Preparata (SPAA 1995): a d-dimensional
// near-neighbor interconnection of p (x/m)^(1/d)-H-RAMs, each with mn/p
// memory words, with near-neighbor geometric distance (n/p)^(1/d).
// M1(n, p, m) is the linear array; M2(n, p, m) the square mesh.
//
// The package provides the machine structure (per-node H-RAMs wired to a
// cost.Bank of virtual clocks plus distance-charged links) and the
// synchronous guest executor: running a network Program for T steps on the
// fully parallel machine Md(n, n, m), which defines the guest time Tn that
// every simulation's slowdown is measured against.
package network

import (
	"fmt"

	"bsmp/internal/cost"
	"bsmp/internal/hram"
	"bsmp/internal/topology"
)

// Machine is an Md(n, p, m).
type Machine struct {
	// D is the mesh dimension (1, 2 or 3).
	D int
	// N is the machine volume: the guest-equivalent processor count.
	N int
	// P is the number of (CPU, memory-module) nodes; for D = 2 (resp. 3)
	// it must be a perfect square (resp. cube).
	P int
	// M is the memory density: cells per unit of volume. Each node holds
	// M*N/P words.
	M int

	// Bank holds one virtual clock per node.
	Bank *cost.Bank
	// Nodes holds one H-RAM per node, sharing the Bank's meters.
	Nodes []*hram.Machine

	// topo is the host interconnection geometry. Every geometric method
	// of the machine (Coord/Index/Distance/Neighbors/Spacing/Side)
	// delegates here, so engines that hold a Machine consume the
	// topology seam without knowing it.
	topo topology.Topology
	// spacing caches topo.Spacing() for the per-vertex Message charge in
	// the guest executors (one interface call per vertex adds up).
	spacing float64
}

// New constructs Md(n, p, m). Constraints: d in {1, 2, 3}; 1 <= p <= n;
// m >= 1; p divides n; for d = 2 (resp. 3), p and n must be perfect
// squares (resp. cubes). topology.NewMesh checks the shape and NewOn the
// density; either panics on a violation.
func New(d, n, p, m int, opts ...hram.Option) *Machine {
	return NewOn(topology.NewMesh(d, n, p), n, m, opts...)
}

// NewOn constructs a machine over an explicit topology — the seam the
// fault-masked and future bus/partitioned interconnections plug into.
// The node count, dimension and spacing come from the topology; n is
// the machine volume (p | n required) and m the memory density.
func NewOn(topo topology.Topology, n, m int, opts ...hram.Option) *Machine {
	d, p := topo.Dim(), topo.Nodes()
	if p < 1 || n < p || n%p != 0 {
		panic(fmt.Sprintf("network: need 1 <= p <= n with p | n, got p=%d n=%d", p, n))
	}
	if m < 1 {
		panic(fmt.Sprintf("network: density m=%d < 1", m))
	}
	bank := cost.NewBank(p)
	nodes := make([]*hram.Machine, p)
	per := m * (n / p)
	f := hram.Standard(d, m)
	for i := range nodes {
		nodes[i] = hram.New(per, f, bank.Proc(i), opts...)
	}
	return &Machine{
		D: d, N: n, P: p, M: m,
		Bank: bank, Nodes: nodes,
		topo:    topo,
		spacing: topo.Spacing(),
	}
}

// Topo exposes the machine's interconnection geometry.
func (ma *Machine) Topo() topology.Topology { return ma.topo }

// NodeMemory reports the per-node memory size mn/p.
func (ma *Machine) NodeMemory() int { return ma.M * (ma.N / ma.P) }

// Spacing reports the geometric near-neighbor distance (n/p)^(1/d).
func (ma *Machine) Spacing() float64 { return ma.spacing }

// Side reports the mesh side sqrt(p) for d = 2, or p for d = 1.
func (ma *Machine) Side() int { return ma.topo.Side() }

// Coord maps node index i to grid coordinates: (i, 0) for d = 1,
// (i mod side, i div side) for d = 2. For d = 3 use Coord3.
func (ma *Machine) Coord(i int) (gx, gy int) { return ma.topo.Coord(i) }

// Coord3 maps node index i to full grid coordinates for any dimension.
func (ma *Machine) Coord3(i int) (gx, gy, gz int) { return ma.topo.Coord3(i) }

// Index maps grid coordinates to the node index; inverse of Coord.
func (ma *Machine) Index(gx, gy int) int { return ma.topo.Index(gx, gy) }

// Index3 maps full grid coordinates to the node index; inverse of Coord3.
func (ma *Machine) Index3(gx, gy, gz int) int { return ma.topo.Index3(gx, gy, gz) }

// Distance reports the geometric distance between nodes i and j
// (Manhattan grid distance times the node spacing, the routed wire length).
func (ma *Machine) Distance(i, j int) float64 { return ma.topo.Dist(i, j) }

// Neighbors appends the node indices adjacent to i (d = 1: left, right;
// d = 2: plus south, north; d = 3: plus down, up), clipped to the machine.
func (ma *Machine) Neighbors(i int, buf []int) []int { return ma.topo.Neighbors(i, buf) }

// neighborLists materializes every node's neighbor list once. The guest
// executors are per-vertex hot loops; enumerating adjacency up front
// replaces a topology call per vertex per step with a slice read, and
// the lists are identical every step (the geometry is static), so
// outputs and charges are unchanged.
func neighborLists(topo topology.Topology, n int) [][]int {
	nbr := make([][]int, n)
	for v := 0; v < n; v++ {
		nbr[v] = topo.Neighbors(v, nil)
	}
	return nbr
}

// Send transmits words from node i to node j, charging bounded-speed
// message time (distance latency plus unit-rate streaming) on the Bank.
func (ma *Machine) Send(i, j int, words int64) {
	ma.Bank.Send(i, j, ma.Distance(i, j), words)
}

// Elapsed reports the machine's completion time so far (the makespan
// across all node clocks).
func (ma *Machine) Elapsed() cost.Time { return ma.Bank.MaxNow() }

// Program is a synchronous network computation in the style of
// Definition 3: every node holds a private memory of NodeMemory() words
// and a broadcast value; at each step a node reads one addressed memory
// cell, combines it with the neighbors' previous broadcast values, then
// updates both the cell and its broadcast value.
type Program interface {
	// Init fills node's initial memory and returns its initial broadcast
	// value (the value of dag vertex (node, 0)).
	Init(node int, mem []hram.Word) hram.Word
	// Address selects the memory cell node reads and rewrites at step.
	// Must lie in [0, memSize).
	Address(node, step, memSize int) int
	// Step computes the node's new broadcast value and the new content
	// of the addressed cell, from the old cell value and the previous
	// broadcast values of [self, neighbors...] in Neighbors order.
	Step(node, step int, cell hram.Word, prev []hram.Word) (out, cellOut hram.Word)
}

// RunGuest executes prog for steps synchronous steps on the fully parallel
// machine (P == N required), with full cost accounting: per step each node
// charges the addressed access, one unit of compute, and the neighbor
// exchange at distance Spacing(); a barrier closes each step. It returns
// the final broadcast values and the elapsed virtual time.
//
// This is the guest computation of the paper's theorems: its elapsed time
// is the Tn in every slowdown ratio Tp/Tn.
func RunGuest(ma *Machine, prog Program, steps int) ([]hram.Word, cost.Time) {
	b, elapsed, _ := RunGuestHook(ma, prog, steps, nil)
	return b, elapsed
}

// StepHook is polled by the hooked guest executors once per completed
// synchronous step, with the number of node-steps (vertices) just
// executed. Returning a non-nil error aborts the run with that error.
// Hooks run between steps and never touch the cost meters, so a run
// whose hook always returns nil is bit-identical to the unhooked one.
type StepHook func(vertices int) error

// RunGuestHook is RunGuest with an optional per-step hook (nil runs no
// hook). simulate uses the hook for cooperative cancellation and
// progress metering.
//
// The hook is polled by the step driver here, never inside the vertex
// loop: a hook branch in the hot loop cost 5–14% even when nil (the
// extra exit path degrades register allocation), so the loop lives in
// the non-inlined chargedStep, which has no exit path at all.
func RunGuestHook(ma *Machine, prog Program, steps int, hook StepHook) ([]hram.Word, cost.Time, error) {
	start := ma.Elapsed()
	b := load(ma, prog)
	prevB := make([]hram.Word, ma.P)
	nbr := neighborLists(ma.topo, ma.P)
	ops := make([]hram.Word, 0, 7) // self + at most 2d = 6 neighbors
	for t := 1; t <= steps; t++ {
		if hook != nil {
			if err := hook(ma.P); err != nil {
				return nil, 0, err
			}
		}
		copy(prevB, b)
		chargedStep(ma, prog, t, nbr, b, prevB, ops)
	}
	return b, ma.Elapsed() - start, nil
}

// load fills every node of the fully parallel machine (P == N required)
// from prog.Init and returns the initial broadcast values. Loading is
// free (Poke): inputs are assumed in place, as in the paper's model
// where (v, 0) holds the initial value.
func load(ma *Machine, prog Program) []hram.Word {
	if ma.P != ma.N {
		panic(fmt.Sprintf("network: guest runs need P == N, got P=%d N=%d", ma.P, ma.N))
	}
	b := make([]hram.Word, ma.P)
	raw := make([]hram.Word, ma.NodeMemory())
	for i := range b {
		clear(raw)
		b[i] = prog.Init(i, raw)
		for a, w := range raw {
			ma.Nodes[i].Poke(a, w)
		}
	}
	return b
}

// chargedStep executes synchronous step t on every node, reading the
// previous broadcasts from prevB and writing the new ones to b, and
// closes the step with a barrier. It is the one cost-charged vertex
// loop; see RunGuestHook for why it must not be inlined.
//
//go:noinline
func chargedStep(ma *Machine, prog Program, t int, nbr [][]int, b, prevB, ops []hram.Word) {
	memSize := ma.NodeMemory()
	for v := range b {
		addr := prog.Address(v, t, memSize)
		cell := ma.Nodes[v].Read(addr)
		ops = ops[:0]
		ops = append(ops, prevB[v])
		for _, u := range nbr[v] {
			ops = append(ops, prevB[u])
		}
		out, cellOut := prog.Step(v, t, cell, ops)
		ma.Nodes[v].Op()
		ma.Nodes[v].Write(addr, cellOut)
		// Neighbor exchange: receiving 2d values over distance
		// Spacing() in parallel costs one link traversal.
		ma.Bank.Proc(v).Charge(cost.Message, ma.Spacing())
		b[v] = out
	}
	ma.Bank.Barrier()
}

// RunGuestPure executes prog functionally with no cost accounting — the
// ground truth against which hosted simulations are verified. It returns
// the final broadcast values and final per-node memories. Adjacency
// comes from a bare topology mesh: no machine (and no O(n·m) H-RAM
// memory) is ever built for the functional replay.
func RunGuestPure(d, n, m, steps int, prog Program) ([]hram.Word, [][]hram.Word) {
	b, mems, _ := RunGuestPureHook(d, n, m, steps, prog, nil)
	return b, mems
}

// RunGuestPureHook is RunGuestPure with an optional per-step hook (nil
// runs no hook). The functional replay is the CPU-dominant part of the
// multiprocessor schemes, so this is where their cancellation latency is
// bounded. As in RunGuestHook, the driver polls the hook between steps
// and the vertex loop lives in the non-inlined pureStep.
func RunGuestPureHook(d, n, m, steps int, prog Program, hook StepHook) ([]hram.Word, [][]hram.Word, error) {
	nbr := neighborLists(topology.NewMesh(d, n, n), n)
	mems := make([][]hram.Word, n)
	b := make([]hram.Word, n)
	for i := range b {
		mems[i] = make([]hram.Word, m) // NodeMemory of the fully parallel machine: m·(n/n)
		b[i] = prog.Init(i, mems[i])
	}
	prevB := make([]hram.Word, n)
	ops := make([]hram.Word, 0, 7) // self + at most 2d = 6 neighbors
	for t := 1; t <= steps; t++ {
		if hook != nil {
			if err := hook(n); err != nil {
				return nil, nil, err
			}
		}
		copy(prevB, b)
		pureStep(prog, t, m, nbr, mems, b, prevB, ops)
	}
	return b, mems, nil
}

// pureStep executes synchronous step t functionally on every node: the
// one pure vertex loop.
//
//go:noinline
func pureStep(prog Program, t, memSize int, nbr [][]int, mems [][]hram.Word, b, prevB, ops []hram.Word) {
	for v := range b {
		addr := prog.Address(v, t, memSize)
		ops = ops[:0]
		ops = append(ops, prevB[v])
		for _, u := range nbr[v] {
			ops = append(ops, prevB[u])
		}
		out, cellOut := prog.Step(v, t, mems[v][addr], ops)
		mems[v][addr] = cellOut
		b[v] = out
	}
}
