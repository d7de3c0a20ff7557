package core

// Allocation-budget regression tests for the pooled hot paths. The
// simulator's large-n feasibility rests on three invariants: sending
// (snapshot + payload assembly) recycles through the pool, delivery
// (absorb/merge) allocates nothing, and target sampling reuses its
// scratch. testing.AllocsPerRun pins each one so a regression fails the
// suite instead of quietly re-inflating GC pressure.

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestPooledSendReleaseAllocs drives the full per-send object cycle the
// world performs — snapshot rumors and informed list, assemble a payload,
// retain per enqueued message, absorb at the receiver, release — and
// requires zero steady-state allocations.
func TestPooledSendReleaseAllocs(t *testing.T) {
	const n = 256
	p := Params{N: n}.WithDefaults()
	p.Pool = NewPool(n)

	sender := p.NewTracker(3, NoValue)
	senderInf := newInformedList(n, p.Pool, nil)
	receiver := p.NewTracker(5, NoValue)

	cycle := func(i int) {
		payload := p.Pool.Gossip(sender.rum.Snapshot(), senderInf.m.Snapshot(), false)
		payload.Retain()
		sender.Learn(sim.ProcID(i%n), NoValue, sim.Time(i)) // mutate after snapshot
		senderInf.markSent(i%n, sender.rum.Set)
		receiver.Absorb(payload.Rumors, sim.Time(i))
		payload.Release()
	}
	for i := 0; i < 64; i++ {
		cycle(i) // warm the pool
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		cycle(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("pooled send/absorb/release cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestAbsorbAllocs pins the delivery path on its own: absorbing a payload
// that carries both old and new rumors must not allocate, pooled or not.
func TestAbsorbAllocs(t *testing.T) {
	const n = 512
	st := Params{N: n}.NewTracker(0, NoValue)
	in := NewRumors(n, false)
	for i := 0; i < n; i += 2 {
		in.Add(sim.ProcID(i), NoValue)
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		in.Add(sim.ProcID((k*2+1)%n), NoValue) // keep some rumors fresh
		st.Absorb(in, sim.Time(k))
		k++
	})
	if allocs != 0 {
		t.Fatalf("Absorb allocates %.1f/op, want 0", allocs)
	}
}

// TestSamplerKIntoAllocs pins fan-out target selection at zero
// steady-state allocations on the clique path (sears draws Θ(n^ε log n)
// targets every local step).
func TestSamplerKIntoAllocs(t *testing.T) {
	p := Params{N: 256}.WithDefaults()
	s := p.sampler(9)
	r := rng.New(11)
	buf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(500, func() {
		buf = s.KInto(buf[:0], 48, r)
	})
	if allocs != 0 {
		t.Fatalf("Sampler.KInto allocates %.1f/op, want 0", allocs)
	}
	if len(buf) != 48 {
		t.Fatalf("KInto returned %d targets, want 48", len(buf))
	}
}

// TestLeanTrackerMilestones checks the lean tracker against the full one
// on the milestones the evaluators read: the majority threshold, the full
// count, and the position of the last acquisition.
func TestLeanTrackerMilestones(t *testing.T) {
	const n = 9
	full := Params{N: n}.NewTracker(2, NoValue)
	lean := Params{N: n, Lean: true}.NewTracker(2, NoValue)

	order := []sim.ProcID{7, 0, 5, 1, 8, 3, 4, 6}
	for i, r := range order {
		at := sim.Time(10 * (i + 1))
		full.Learn(r, NoValue, at)
		lean.Learn(r, NoValue, at)
	}

	maj := n/2 + 1
	if got, want := lean.RumorCountReachedAt(maj), full.RumorCountReachedAt(maj); got != want {
		t.Fatalf("lean majority milestone = %d, full = %d", got, want)
	}
	if got, want := lean.RumorCountReachedAt(n), full.RumorCountReachedAt(n); got != want {
		t.Fatalf("lean full-count milestone = %d, full = %d", got, want)
	}
	if got := lean.RumorCountReachedAt(1); got != 0 {
		t.Fatalf("lean k=1 milestone = %d, want 0", got)
	}
	// The rumor acquired last is exact; own rumor is time 0; a never-held
	// rumor is -1 (none here: all acquired).
	last := order[len(order)-1]
	if got, want := lean.RumorAcquiredAt(last), full.RumorAcquiredAt(last); got != want {
		t.Fatalf("lean last-acquired = %d, full = %d", got, want)
	}
	if got := lean.RumorAcquiredAt(2); got != 0 {
		t.Fatalf("lean own-rumor time = %d, want 0", got)
	}
	// Lean times for other rumors are upper bounds: never earlier than the
	// true acquisition, never later than the final acquisition.
	for _, r := range order[:len(order)-1] {
		lt, ft := lean.RumorAcquiredAt(r), full.RumorAcquiredAt(r)
		if lt < ft || lt > full.RumorCountReachedAt(n) {
			t.Fatalf("lean time %d for rumor %d outside [%d, last]", lt, r, ft)
		}
	}
}

// TestLeanGossipRunsMatchFullMetrics runs the same executions in lean and
// full tracker modes: message/step metrics must be identical (the tracker
// mode only changes evaluator bookkeeping, never protocol behavior).
func TestLeanGossipRunsMatchFullMetrics(t *testing.T) {
	for _, proto := range []Protocol{Trivial{}, TEARS{}, Naive{}} {
		for _, seed := range []int64{2, 13} {
			run := func(lean bool) sim.Result {
				p := Params{N: 40, F: 0, Lean: lean}
				nodes, err := NewNodes(proto, p, seed)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sim.NewWorld(sim.Config{N: 40, F: 0, D: 2, Delta: 2, Seed: seed}, nodes, syncAdv{n: 40})
				if err != nil {
					t.Fatal(err)
				}
				res, err := w.Run(nil) // evaluator-independent comparison
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			full, lean := run(false), run(true)
			if full.Messages != lean.Messages || full.QuiesceAt != lean.QuiesceAt || full.Bytes != lean.Bytes {
				t.Fatalf("%s seed %d: lean run diverged: full=%+v lean=%+v",
					proto.Name(), seed, full, lean)
			}
		}
	}
}

// syncAdv is a minimal everyone-every-step adversary for kernel tests.
type syncAdv struct{ n int }

func (a syncAdv) Schedule(_ sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	for i := 0; i < a.n; i++ {
		buf = append(buf, sim.ProcID(i))
	}
	return buf
}

func (syncAdv) Delay(sim.Time, sim.ProcID, sim.ProcID) sim.Time { return 1 }

func (syncAdv) Crashes(_ sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID { return buf }

// TestAveragingAllocsPerMessage pins the whole-run allocation rate of one
// averaging run (construction included) at n=256: a send that boxes its
// payload into the sim.Payload interface costs one allocation per
// message and fails it.
func TestAveragingAllocsPerMessage(t *testing.T) {
	const budget = 0.05
	cfg := sim.Config{N: 256, F: 0, D: 2, Delta: 2, Seed: 1}
	var msgs int64
	allocs := testing.AllocsPerRun(1, func() {
		res, _ := averagingRun(t, cfg, nil)
		msgs = res.Messages
	})
	perMsg := allocs / float64(msgs)
	t.Logf("average n=%d: %.0f allocations for %d messages (%.3f/msg)", cfg.N, allocs, msgs, perMsg)
	if perMsg > budget {
		t.Fatalf("averaging allocates %.3f per message, budget %.2f", perMsg, budget)
	}
}
