// Package topology is the pluggable geometry layer of the Md machines:
// the d-dimensional near-neighbor mesh of Definition 2 (Bilardi &
// Preparata, SPAA 1995) factored out of network.Machine so the host
// interconnection can vary — fault-masked meshes here, partitioned-bus
// or reconfigurable meshes later — without every engine knowing.
//
// The canonical implementations Mesh1/Mesh2/Mesh3 reproduce the
// historical network.Machine geometry expression-for-expression:
// the spacing (n/p)^(1/d) is the exact math.Pow form the machine
// constructor used, coordinate↔index maps keep the same arithmetic, and
// Neighbors appends in the same -x, +x, -y, +y, -z, +z clipped order.
// Golden virtual times are bit-identical across the extraction because
// every float produced here is the same float the inlined code produced.
package topology

import (
	"fmt"
	"math"
)

// Topology is the geometry a machine or engine consumes: node
// coordinates, the index map, geometric distance, neighbor enumeration
// and the near-neighbor spacing. Implementations must be immutable
// after construction; all methods are safe for concurrent use.
type Topology interface {
	// Dim is the mesh dimension (1, 2 or 3).
	Dim() int
	// Nodes is the number of nodes.
	Nodes() int
	// Side is the mesh side: Nodes^(1/Dim) nodes per axis.
	Side() int
	// Spacing is the geometric near-neighbor distance (n/p)^(1/d).
	Spacing() float64
	// Coord maps node index i to grid coordinates (gz suppressed);
	// for d = 3 use Coord3.
	Coord(i int) (gx, gy int)
	// Coord3 maps node index i to full grid coordinates.
	Coord3(i int) (gx, gy, gz int)
	// Index maps grid coordinates to the node index; inverse of Coord.
	Index(gx, gy int) int
	// Index3 maps full grid coordinates to the node index; inverse of
	// Coord3.
	Index3(gx, gy, gz int) int
	// Dist is the geometric distance between nodes i and j: Manhattan
	// grid distance times the spacing, the routed wire length. It is a
	// metric (symmetric, zero iff i == j, triangle inequality).
	Dist(i, j int) float64
	// Neighbors appends the node indices adjacent to i in -x, +x, -y,
	// +y, -z, +z order, clipped to the mesh boundary.
	Neighbors(i int, buf []int) []int
}

// mesh is the shared body of the three canonical meshes: p nodes of a
// d-dimensional grid embedded in a volume-n machine.
type mesh struct {
	d, nodes, side int
	spacing        float64
}

// newMesh validates and builds the shared mesh body. It is the one home
// of the mesh shape constraints; the spacing expression is the
// historical network.New form.
func newMesh(d, n, p int) mesh {
	if d < 1 || d > 3 {
		panic(fmt.Sprintf("topology: dimension %d not in {1,2,3}", d))
	}
	if p < 1 || n < p {
		panic(fmt.Sprintf("topology: need 1 <= p <= n, got p=%d n=%d", p, n))
	}
	if n%p != 0 {
		panic(fmt.Sprintf("topology: p=%d must divide n=%d", p, n))
	}
	side := p
	if d == 2 {
		side = intSqrt(p)
		if side*side != p {
			panic(fmt.Sprintf("topology: d=2 needs square p, got %d", p))
		}
		if s := intSqrt(n); s*s != n {
			panic(fmt.Sprintf("topology: d=2 needs square n, got %d", n))
		}
	}
	if d == 3 {
		side = intCbrt(p)
		if side*side*side != p {
			panic(fmt.Sprintf("topology: d=3 needs cubic p, got %d", p))
		}
		if s := intCbrt(n); s*s*s != n {
			panic(fmt.Sprintf("topology: d=3 needs cubic n, got %d", n))
		}
	}
	return mesh{
		d: d, nodes: p, side: side,
		spacing: math.Pow(float64(n)/float64(p), 1/float64(d)),
	}
}

func (m *mesh) Dim() int         { return m.d }
func (m *mesh) Nodes() int       { return m.nodes }
func (m *mesh) Side() int        { return m.side }
func (m *mesh) Spacing() float64 { return m.spacing }

func (m *mesh) Coord(i int) (gx, gy int) {
	if m.d == 1 {
		return i, 0
	}
	return i % m.side, (i / m.side) % m.side
}

func (m *mesh) Coord3(i int) (gx, gy, gz int) {
	switch m.d {
	case 1:
		return i, 0, 0
	case 2:
		return i % m.side, i / m.side, 0
	default:
		return i % m.side, (i / m.side) % m.side, i / (m.side * m.side)
	}
}

func (m *mesh) Index(gx, gy int) int {
	if m.d == 1 {
		return gx
	}
	return gy*m.side + gx
}

func (m *mesh) Index3(gx, gy, gz int) int {
	switch m.d {
	case 1:
		return gx
	case 2:
		return gy*m.side + gx
	default:
		return (gz*m.side+gy)*m.side + gx
	}
}

func (m *mesh) Dist(i, j int) float64 {
	xi, yi, zi := m.Coord3(i)
	xj, yj, zj := m.Coord3(j)
	return float64(abs(xi-xj)+abs(yi-yj)+abs(zi-zj)) * m.spacing
}

func (m *mesh) Neighbors(i int, buf []int) []int {
	gx, gy, gz := m.Coord3(i)
	if gx > 0 {
		buf = append(buf, m.Index3(gx-1, gy, gz))
	}
	if gx < m.side-1 {
		buf = append(buf, m.Index3(gx+1, gy, gz))
	}
	if m.d >= 2 {
		if gy > 0 {
			buf = append(buf, m.Index3(gx, gy-1, gz))
		}
		if gy < m.side-1 {
			buf = append(buf, m.Index3(gx, gy+1, gz))
		}
	}
	if m.d >= 3 {
		if gz > 0 {
			buf = append(buf, m.Index3(gx, gy, gz-1))
		}
		if gz < m.side-1 {
			buf = append(buf, m.Index3(gx, gy, gz+1))
		}
	}
	return buf
}

// Mesh1 is the linear array M1: p nodes at spacing n/p.
type Mesh1 struct{ mesh }

// NewMesh1 builds the p-node linear array of a volume-n machine.
func NewMesh1(n, p int) *Mesh1 { return &Mesh1{newMesh(1, n, p)} }

// Mesh2 is the square mesh M2: √p × √p nodes at spacing (n/p)^(1/2).
type Mesh2 struct{ mesh }

// NewMesh2 builds the p-node square mesh of a volume-n machine; n and p
// must be perfect squares with p | n.
func NewMesh2(n, p int) *Mesh2 { return &Mesh2{newMesh(2, n, p)} }

// Mesh3 is the cube mesh M3: ∛p per axis at spacing (n/p)^(1/3).
type Mesh3 struct{ mesh }

// NewMesh3 builds the p-node cube mesh of a volume-n machine; n and p
// must be perfect cubes with p | n.
func NewMesh3(n, p int) *Mesh3 { return &Mesh3{newMesh(3, n, p)} }

// NewMesh dispatches on the dimension: the p-node d-mesh of a volume-n
// machine. It panics on malformed geometry (d outside {1, 2, 3}, p not
// dividing n, a non-square or non-cube shape); network.New relies on it
// for exactly these checks, and callers on the service boundary
// validate first (simulate.ValidateParams).
func NewMesh(d, n, p int) Topology {
	m := newMesh(d, n, p)
	switch d {
	case 1:
		return &Mesh1{m}
	case 2:
		return &Mesh2{m}
	default:
		return &Mesh3{m}
	}
}

// Root is the dimension-matched d-th root used by the engines' cost
// geometry: identity for d = 1, math.Sqrt for d = 2, math.Cbrt for
// d = 3. The per-dimension functions — not math.Pow(x, 1/d) — are what
// the historical cost formulas used, and math.Pow(x, 1/3.0) differs
// from math.Cbrt(x) in the last ulp for some x, so centralizing the
// exact forms here is what keeps the extraction bit-identical. (The
// mesh spacing keeps the machine constructor's math.Pow form for the
// same reason: each caller gets the float it always got.)
func Root(d int, x float64) float64 {
	switch d {
	case 1:
		return x
	case 2:
		return math.Sqrt(x)
	default:
		return math.Cbrt(x)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func intSqrt(n int) int {
	if n < 0 {
		return -1
	}
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func intCbrt(n int) int {
	if n < 0 {
		return -1
	}
	r := int(math.Cbrt(float64(n)))
	for r*r*r > n {
		r--
	}
	for (r+1)*(r+1)*(r+1) <= n {
		r++
	}
	return r
}
