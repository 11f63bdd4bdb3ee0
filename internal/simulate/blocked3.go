package simulate

import (
	"context"

	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// BlockedD3 completes the d = 3 extension for general m: the blocked
// simulation of the cube-mesh guest M3(n, n, m) on the uniprocessor
// M3(n, 1, m), recursing on the four-dimensional Box6 separator down to
// executable domains of span ~m. Together with the m = 1 result of
// simulate.UniDC(3, ...) this makes the full Theorem 3 mechanism
// available in three dimensions — the regime the paper's conclusions
// conjecture about.
//
// n must be a perfect cube; leafSpan <= 0 selects span m.
//
// The recursion and entry body are shared across dimensions (see
// BlockedD1); this dimension supplies the cube geometry (cubeBlocked).
func BlockedD3(n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	return BlockedD3Context(context.Background(), n, m, steps, leafSpan, prog, opts...)
}

// BlockedD3Context is BlockedD3 under a context; see BlockedD1Context
// for the cancellation and progress contract.
func BlockedD3Context(ctx context.Context, n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	return blockedContext(ctx, 3, n, m, steps, leafSpan, prog, opts...)
}

// cubeBlocked is the d = 3 surface: node id = (z*side+y)*side+x, operand
// stencil self then the six cube neighbors in Neighbors order
// (W, E, S, N, D, U), columns in first-seen (T, X, Y, Z) order.
func cubeBlocked(n, steps int) (rootedDag, blockedGeom) {
	side, _ := exactCbrt(n)
	// Node id ↔ coordinate maps come from the guest mesh topology; only
	// the dag-layer predecessor stencil below stays lattice-local (its
	// clipped W, E, S, N, D, U order mirrors topology Neighbors order).
	mesh := topology.NewMesh3(n, n)
	return dag.NewCubeGraph(side, steps+1), blockedGeom{
		nodeIndex: func(p lattice.Point) int { return mesh.Index3(p.X, p.Y, p.Z) },
		nodePos: func(node int) lattice.Point {
			gx, gy, gz := mesh.Coord3(node)
			return lattice.Point{X: gx, Y: gy, Z: gz}
		},
		netPreds: func(p lattice.Point, buf []lattice.Point) []lattice.Point {
			// Operands in network order: self, then the six cube neighbors
			// in Neighbors order (W, E, S, N, D, U), clipped.
			buf = append(buf, lattice.Point{X: p.X, Y: p.Y, Z: p.Z, T: p.T - 1})
			if p.X > 0 {
				buf = append(buf, lattice.Point{X: p.X - 1, Y: p.Y, Z: p.Z, T: p.T - 1})
			}
			if p.X < side-1 {
				buf = append(buf, lattice.Point{X: p.X + 1, Y: p.Y, Z: p.Z, T: p.T - 1})
			}
			if p.Y > 0 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y - 1, Z: p.Z, T: p.T - 1})
			}
			if p.Y < side-1 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y + 1, Z: p.Z, T: p.T - 1})
			}
			if p.Z > 0 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y, Z: p.Z - 1, T: p.T - 1})
			}
			if p.Z < side-1 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y, Z: p.Z + 1, T: p.T - 1})
			}
			return buf
		},
		side: side,
	}
}
