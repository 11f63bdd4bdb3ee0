package simulate

import (
	"context"

	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// BlockedD2 is the d = 2 analogue of BlockedD1: Theorem 3's blocked
// simulation of the mesh guest M2(n, n, m) on the uniprocessor
// M2(n, 1, m), recursing on the octahedron/tetrahedron domains of
// Section 5 with whole node memories as the unit of relocation, down to
// "executable octahedra" of span ~m simulated naively in place.
//
// The same two value kinds flow as in the d = 1 scheme — broadcast words
// per dag vertex and m-word node images keyed by (x, y, entry time) —
// with real address management on a single f(x) = sqrt(x/m) H-RAM. The
// paper states only the d = 1 construction explicitly (Theorem 3) and the
// combined d = 2 bound (Theorem 1); this executor shows the blocked
// technique carries over verbatim once the octahedral separator replaces
// the diamond.
//
// n must be a perfect square; leafSpan <= 0 selects span m (the
// executable-domain width that balances per-vertex access cost against
// per-level relocation, the same tradeoff as d = 1).
//
// The recursion and entry body are shared across dimensions (see
// BlockedD1); this dimension supplies the mesh geometry (meshBlocked).
func BlockedD2(n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	return BlockedD2Context(context.Background(), n, m, steps, leafSpan, prog, opts...)
}

// BlockedD2Context is BlockedD2 under a context; see BlockedD1Context
// for the cancellation and progress contract.
func BlockedD2Context(ctx context.Context, n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	return blockedContext(ctx, 2, n, m, steps, leafSpan, prog, opts...)
}

// meshBlocked is the d = 2 surface: node id = y*side+x, operand stencil
// (self, W, E, S, N), columns in first-seen (T, X, Y) order.
func meshBlocked(n, steps int) (rootedDag, blockedGeom) {
	side, _ := exactSqrt(n)
	// Node id ↔ coordinate maps come from the guest mesh topology; only
	// the dag-layer predecessor stencil below stays lattice-local (its
	// clipped W, E, S, N order mirrors topology Neighbors order).
	mesh := topology.NewMesh2(n, n)
	return dag.NewMeshGraph(side, steps+1), blockedGeom{
		nodeIndex: func(p lattice.Point) int { return mesh.Index(p.X, p.Y) },
		nodePos: func(node int) lattice.Point {
			gx, gy := mesh.Coord(node)
			return lattice.Point{X: gx, Y: gy}
		},
		netPreds: func(p lattice.Point, buf []lattice.Point) []lattice.Point {
			// Operands in network order: self, W, E, S, N (clipped).
			buf = append(buf, lattice.Point{X: p.X, Y: p.Y, T: p.T - 1})
			if p.X > 0 {
				buf = append(buf, lattice.Point{X: p.X - 1, Y: p.Y, T: p.T - 1})
			}
			if p.X < side-1 {
				buf = append(buf, lattice.Point{X: p.X + 1, Y: p.Y, T: p.T - 1})
			}
			if p.Y > 0 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y - 1, T: p.T - 1})
			}
			if p.Y < side-1 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y + 1, T: p.T - 1})
			}
			return buf
		},
		side: side,
	}
}
