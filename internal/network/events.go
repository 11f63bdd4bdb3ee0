package network

import (
	"bsmp/internal/cost"
	"bsmp/internal/hram"
	"bsmp/internal/sched"
)

// RunGuestEvents executes prog for steps steps on the fully parallel
// machine (P == N required) with message delivery rescheduled through
// an event queue instead of the per-step phase barrier: node v executes
// step t as soon as its own step t-1 is done and every neighbor's
// step t-1 broadcast has *arrived*, where an arrival is a queue event
// at the sender's completion time plus the (possibly Θ-stretched, via
// the Bank's DelayModel) link distance.
//
// Semantics versus RunGuest: outputs are identical (the dataflow
// dependencies are the same, pinned against RunGuestPure), but the cost
// accounting is asynchronous — link latency shows up as arrival delay
// (Sync idling on the receiver) rather than as a per-step Message
// charge followed by a global barrier, and no barrier ever runs. Under
// the lockstep delay model the makespan is therefore at most RunGuest's
// (nodes with cheap steps run ahead instead of stalling at the
// barrier); under a ThetaModel every link is stretched by a factor in
// [1, Θ], and the makespan is monotone non-decreasing in Θ because each
// draw is fixed by (seed, proc, seq) independent of Θ.
//
// Dispatch is deterministic: all events are scheduled in fixed loop
// order, so the queue's (time, proc, seq) order — and every virtual
// time — is a pure function of (prog, steps, delay model).
func RunGuestEvents(ma *Machine, prog Program, steps int) ([]hram.Word, cost.Time) {
	start := ma.Elapsed()
	memSize := ma.NodeMemory()
	n := ma.P

	// Initial loading is free (Poke), as in the synchronous executors.
	bufs := [2][]hram.Word{load(ma, prog), make([]hram.Word, n)}

	// Adjacency and spacing come straight from the machine's topology —
	// the event engine never does its own mesh math.
	topo := ma.Topo()
	nbr := neighborLists(topo, n)

	// cnt[v][t&1] counts the deliveries still missing before v can run
	// step t. Neighbor skew is at most one step (step t needs the
	// neighbor's t-1 value), so two parity slots cover every in-flight
	// step. Executing step t re-arms slot t&1 for step t+2.
	cnt := make([][2]int, n)
	for v := range cnt {
		cnt[v][0] = len(nbr[v]) + 1 // step 2's deliveries
	}

	q := sched.New()
	ops := make([]hram.Word, 0, 7)
	spacing := topo.Spacing()

	var deliver func(w, t int) func()
	var exec func(v, t int)
	exec = func(v, t int) {
		m := ma.Bank.Proc(v)
		// The last input arrived at the current instant; waiting for it
		// is the receiver's stall, charged to Sync.
		m.Idle(q.Now())
		addr := prog.Address(v, t, memSize)
		cell := ma.Nodes[v].Read(addr)
		prev := bufs[(t-1)&1]
		ops = ops[:0]
		ops = append(ops, prev[v])
		for _, u := range nbr[v] {
			ops = append(ops, prev[u])
		}
		out, cellOut := prog.Step(v, t, cell, ops)
		ma.Nodes[v].Op()
		ma.Nodes[v].Write(addr, cellOut)
		bufs[t&1][v] = out
		cnt[v][t&1] = len(nbr[v]) + 1 // re-arm for step t+2
		if t >= steps {
			return
		}
		// Broadcast step t's value: the self "delivery" is immediate,
		// each link pays its (possibly stretched) distance.
		done := m.Now()
		q.At(done, v, deliver(v, t+1))
		for _, u := range nbr[v] {
			q.At(done+ma.Bank.StretchDistance(v, spacing), u, deliver(u, t+1))
		}
	}
	deliver = func(w, t int) func() {
		return func() {
			cnt[w][t&1]--
			if cnt[w][t&1] == 0 {
				exec(w, t)
			}
		}
	}

	if steps >= 1 {
		// Step 1's inputs (the Init broadcasts) are in place at time 0.
		for v := 0; v < n; v++ {
			v := v
			q.At(0, v, func() { exec(v, 1) })
		}
	}
	q.Run()

	// Final values live in the parity slot of the last executed step.
	out := make([]hram.Word, n)
	copy(out, bufs[steps&1])
	return out, ma.Elapsed() - start
}
