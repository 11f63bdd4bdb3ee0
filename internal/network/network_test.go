package network

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"bsmp/internal/hram"
)

// caProg is a width-1-memory cellular-automaton-like program with exactly
// verifiable integer dynamics.
type caProg struct{}

func (caProg) Init(node int, mem []hram.Word) hram.Word {
	for i := range mem {
		mem[i] = hram.Word(node*31+i) | 1
	}
	return hram.Word(node)*2654435761 + 99
}

func (caProg) Address(node, step, memSize int) int {
	return (node + step) % memSize
}

func (caProg) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	var s hram.Word = cell
	for i, p := range prev {
		s = s*31 + p*hram.Word(i+1)
	}
	return s + hram.Word(step), s ^ cell
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad d":        func() { New(4, 8, 8, 1) },
		"p > n":        func() { New(1, 4, 8, 1) },
		"p zero":       func() { New(1, 8, 0, 1) },
		"m zero":       func() { New(1, 8, 8, 0) },
		"p not divide": func() { New(1, 9, 2, 1) },
		"d2 p square":  func() { New(2, 16, 8, 1) },
		"d2 n square":  func() { New(2, 12, 4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGeometry1D(t *testing.T) {
	ma := New(1, 16, 4, 2)
	if ma.NodeMemory() != 8 {
		t.Errorf("NodeMemory = %d, want 8", ma.NodeMemory())
	}
	if ma.Spacing() != 4 {
		t.Errorf("Spacing = %v, want 4", ma.Spacing())
	}
	if d := ma.Distance(0, 3); d != 12 {
		t.Errorf("Distance(0,3) = %v, want 12", d)
	}
	nb := ma.Neighbors(0, nil)
	if len(nb) != 1 || nb[0] != 1 {
		t.Errorf("Neighbors(0) = %v, want [1]", nb)
	}
	nb = ma.Neighbors(2, nil)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Errorf("Neighbors(2) = %v, want [1 3]", nb)
	}
}

func TestGeometry2D(t *testing.T) {
	ma := New(2, 64, 16, 1)
	if ma.Side() != 4 {
		t.Fatalf("Side = %d, want 4", ma.Side())
	}
	if ma.Spacing() != 2 {
		t.Errorf("Spacing = %v, want (64/16)^(1/2) = 2", ma.Spacing())
	}
	// Node 5 is at (1, 1).
	gx, gy := ma.Coord(5)
	if gx != 1 || gy != 1 {
		t.Errorf("Coord(5) = (%d,%d), want (1,1)", gx, gy)
	}
	if ma.Index(gx, gy) != 5 {
		t.Errorf("Index(Coord(5)) != 5")
	}
	if d := ma.Distance(0, 5); d != 4 {
		t.Errorf("Distance(0,5) = %v, want 4", d)
	}
	nb := ma.Neighbors(5, nil)
	want := []int{4, 6, 1, 9}
	if len(nb) != 4 {
		t.Fatalf("Neighbors(5) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", nb, want)
		}
	}
	// Corner has 2 neighbors.
	if nb := ma.Neighbors(0, nil); len(nb) != 2 {
		t.Errorf("corner Neighbors = %v, want 2 entries", nb)
	}
}

func TestSendChargesDistance(t *testing.T) {
	ma := New(1, 12, 4, 1)
	ma.Send(0, 2, 1)
	// Distance(0,2) = 2*3 = 6; arrival = 1 (send) + 6.
	if got := ma.Bank.Proc(2).Now(); got != 7 {
		t.Errorf("receiver clock %v, want 7", got)
	}
}

func TestRunGuestNeedsFullParallel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunGuest on P < N did not panic")
		}
	}()
	ma := New(1, 8, 2, 1)
	RunGuest(ma, caProg{}, 1)
}

func TestRunGuestMatchesPure(t *testing.T) {
	for _, tc := range []struct{ d, n, m, steps int }{
		{1, 8, 1, 8},
		{1, 8, 4, 12},
		{2, 16, 1, 4},
		{2, 16, 3, 6},
	} {
		ma := New(tc.d, tc.n, tc.n, tc.m)
		got, elapsed := RunGuest(ma, caProg{}, tc.steps)
		want, _ := RunGuestPure(tc.d, tc.n, tc.m, tc.steps, caProg{})
		if len(got) != len(want) {
			t.Fatalf("%+v: length mismatch", tc)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: node %d: got %d, want %d", tc, i, got[i], want[i])
			}
		}
		if elapsed <= 0 {
			t.Fatalf("%+v: elapsed %v", tc, elapsed)
		}
	}
}

func TestRunGuestTimeLinearInSteps(t *testing.T) {
	// The guest machine runs in Θ(1) per step: Tn(2T) ≈ 2·Tn(T).
	run := func(steps int) float64 {
		ma := New(1, 16, 16, 4)
		_, el := RunGuest(ma, caProg{}, steps)
		return float64(el)
	}
	t8, t16 := run(8), run(16)
	ratio := t16 / t8
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling steps scaled time by %v, want ~2", ratio)
	}
}

func TestRunGuestStepCostConstantInN(t *testing.T) {
	// Per the paper's premise, a guest step costs O(1) regardless of n:
	// worst-case private access (f(m)=1) is of the order of the neighbor
	// exchange (spacing 1).
	perStep := func(n int) float64 {
		ma := New(1, n, n, 4)
		_, el := RunGuest(ma, caProg{}, 8)
		return float64(el) / 8
	}
	a, b := perStep(8), perStep(64)
	if b/a > 1.5 {
		t.Errorf("per-step guest cost grew with n: %v -> %v", a, b)
	}
}

func TestRunGuestFinalMemoriesMatch(t *testing.T) {
	// The machine's H-RAM memories after RunGuest equal the pure run's.
	d, n, m, steps := 1, 8, 4, 10
	ma := New(d, n, n, m)
	RunGuest(ma, caProg{}, steps)
	_, mems := RunGuestPure(d, n, m, steps, caProg{})
	for v := 0; v < n; v++ {
		for a := 0; a < ma.NodeMemory(); a++ {
			if got, want := ma.Nodes[v].Peek(a), mems[v][a]; got != want {
				t.Fatalf("node %d cell %d: got %d, want %d", v, a, got, want)
			}
		}
	}
}

// Property: Distance is a metric on node indices (symmetry, identity,
// triangle inequality) for all three dimensions. The machine delegates
// to its topology, so this pins the seam; the topology package runs the
// same property over the bare meshes and the FaultMask decorator.
func TestPropertyDistanceMetric(t *testing.T) {
	machines := []*Machine{New(1, 16, 16, 1), New(2, 64, 16, 1), New(3, 512, 64, 1)}
	f := func(raw [3]uint8, which uint8) bool {
		ma := machines[int(which)%len(machines)]
		i := int(raw[0]) % ma.P
		j := int(raw[1]) % ma.P
		k := int(raw[2]) % ma.P
		dij, dji := ma.Distance(i, j), ma.Distance(j, i)
		if dij != dji {
			return false
		}
		if (i == j) != (dij == 0) {
			return false
		}
		return ma.Distance(i, k) <= dij+ma.Distance(j, k)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Index and Coord are inverse bijections.
func TestPropertyIndexCoordInverse(t *testing.T) {
	f := func(raw uint8, d2 bool) bool {
		var ma *Machine
		if d2 {
			ma = New(2, 144, 36, 1)
		} else {
			ma = New(1, 20, 20, 1)
		}
		i := int(raw) % ma.P
		gx, gy := ma.Coord(i)
		return ma.Index(gx, gy) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The hooked and unhooked executors share one step body per family, so
// with a live always-nil hook, outputs, memories, virtual times, and
// per-node clocks are bit-identical, and the hook observes every step. A
// hook that fails at step k aborts the run: its error comes back
// unchanged, the hook ran exactly k times, and no outputs are returned.
func TestHookedExecutorsMatchUnhooked(t *testing.T) {
	const steps = 16
	errStop := errors.New("stop")
	for _, tc := range []struct {
		name    string
		abortAt int // hook call that fails; 0 never fails
	}{
		{"nil-hook", 0},
		{"abort-at-5", 5},
	} {
		for _, g := range []struct{ d, n, m int }{{1, 32, 4}, {2, 36, 3}} {
			name := fmt.Sprintf("%s/d=%d", tc.name, g.d)
			calls := 0
			hook := func(vertices int) error {
				calls++
				if vertices != g.n {
					t.Fatalf("%s: hook vertices = %d, want %d", name, vertices, g.n)
				}
				if calls == tc.abortAt {
					return errStop
				}
				return nil
			}

			base := New(g.d, g.n, g.n, g.m)
			outB, timeB := RunGuest(base, caProg{}, steps)
			hooked := New(g.d, g.n, g.n, g.m)
			outH, timeH, err := RunGuestHook(hooked, caProg{}, steps, hook)
			if tc.abortAt > 0 {
				if err != errStop || calls != tc.abortAt || outH != nil || timeH != 0 {
					t.Fatalf("%s charged: err %v, %d hook calls, %d outputs, time %v; want %v, %d, none, 0",
						name, err, calls, len(outH), timeH, errStop, tc.abortAt)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if calls != steps {
					t.Fatalf("%s: hook ran %d times, want %d", name, calls, steps)
				}
				if timeH != timeB {
					t.Fatalf("%s: hooked time %v != unhooked %v", name, timeH, timeB)
				}
				for i := range outB {
					if outB[i] != outH[i] {
						t.Fatalf("%s: node %d broadcast mismatch", name, i)
					}
					if base.Bank.Proc(i).Now() != hooked.Bank.Proc(i).Now() {
						t.Fatalf("%s: node %d clock mismatch", name, i)
					}
				}
			}

			calls = 0
			outP, memsP := RunGuestPure(g.d, g.n, g.m, steps, caProg{})
			outPH, memsPH, err := RunGuestPureHook(g.d, g.n, g.m, steps, caProg{}, hook)
			if tc.abortAt > 0 {
				if err != errStop || calls != tc.abortAt || outPH != nil || memsPH != nil {
					t.Fatalf("%s pure: err %v, %d hook calls, %d outputs, %d memories; want %v, %d, none, none",
						name, err, calls, len(outPH), len(memsPH), errStop, tc.abortAt)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if calls != steps {
				t.Fatalf("%s: pure hook ran %d times, want %d", name, calls, steps)
			}
			for i := range outP {
				if outP[i] != outPH[i] {
					t.Fatalf("%s: pure node %d broadcast mismatch", name, i)
				}
				for a := range memsP[i] {
					if memsP[i][a] != memsPH[i][a] {
						t.Fatalf("%s: pure node %d mem[%d] mismatch", name, i, a)
					}
				}
			}
		}
	}
}
