package core

import (
	"repro/internal/bitset"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// EARS is the paper's Epidemic Asynchronous Rumor Spreading protocol
// (§3, Figure 2). Each local step a process sends its rumor set V(p) and
// informed-list I(p) to one uniformly random target. The informed-list
// records pairs (r, q) — "rumor r has been sent to process q by someone" —
// and the process enters a Θ(n/(n−f)·log n)-step shut-down phase once
// L(p) = {q : ∃r ∈ V(p), (r,q) ∉ I(p)} is empty, after which it sleeps.
// Learning a new rumor (or a new rumor/target obligation) wakes it up.
//
// Against an oblivious adversary: time O(n/(n−f)·log²n·(d+δ)), messages
// O(n·log³n·(d+δ)) w.h.p. (Theorem 6).
type EARS struct{}

var _ Protocol = EARS{}

// Name implements Protocol.
func (EARS) Name() string { return NameEARS }

// NewNode implements Protocol.
func (EARS) NewNode(id sim.ProcID, p Params, r *rng.RNG) sim.Node {
	e := &earsNode{}
	e.Reset(id, p, r)
	return e
}

// Evaluator implements Protocol: ears promises full gossip.
func (EARS) Evaluator(p Params) sim.Evaluator {
	return FullGossipEvaluator{Params: p.WithDefaults()}
}

// earsNode is the per-process state of ears; sears reuses it with a larger
// fan-out and a one-step shut-down phase.
type earsNode struct {
	Tracker
	id    sim.ProcID
	sears bool // the sears variant: fan-out Θ(n^ε log n), one shut-down step
	n     int

	// peers draws transmission targets: uniform on [n] in the paper's
	// complete-graph model, uniform over the node's neighborhood when a
	// topology is configured.
	peers topology.Sampler

	inf *informedList

	// sleepCnt counts consecutive local steps with L(p) = ∅; the process
	// transmits during the first shutdownSteps of them (the shut-down
	// phase), then sleeps. It resets to zero whenever L(p) ≠ ∅ (Figure 2
	// lines 12–15).
	sleepCnt      int
	shutdownSteps int

	// fanout is the number of random targets per local step: 1 for ears,
	// Θ(n^ε log n) for sears (§4).
	fanout int
	// kbuf is the reusable fan-out target buffer (sears draws Θ(n^ε log n)
	// targets per step; the buffer keeps that allocation-free).
	kbuf []int

	// pool recycles payload snapshots (nil = unpooled run).
	pool *Pool

	r *rng.RNG
}

var (
	_ sim.Node    = (*earsNode)(nil)
	_ RumorHolder = (*earsNode)(nil)
	_ sim.Cloner  = (*earsNode)(nil)
)

// ID implements sim.Node.
func (e *earsNode) ID() sim.ProcID { return e.id }

// Step implements sim.Node, mirroring one iteration of Figure 2's loop.
func (e *earsNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	vGrew, iGrew := false, false
	for _, m := range inbox {
		pl, ok := m.Payload.(*GossipPayload)
		if !ok {
			continue
		}
		before := e.count
		e.Absorb(pl.Rumors, now)
		if e.count != before {
			vGrew = true
		}
		if pl.Informed.m != nil && e.inf.union(pl.Informed.m, vGrew) {
			iGrew = true
		}
	}
	// "Update L(p) based on V(p) and I(p)." (line 11)
	e.inf.refresh(e.rum.Set, vGrew, iGrew)

	if e.inf.covered() {
		e.sleepCnt++ // line 13
	} else {
		e.sleepCnt = 0 // line 14
	}
	if e.sleepCnt > e.shutdownSteps {
		return // asleep (line 15): receive-only until L(p) reopens
	}

	if e.peers.Degree() == 0 {
		return // isolated vertex (degenerate graph): nothing to transmit to
	}

	// Epidemic transmission mode (lines 16–21): snapshot first — the
	// pseudocode sends ⟨V(p), I(p)⟩ before recording the new pairs.
	payload := e.pool.Gossip(e.rum.Snapshot(), e.inf.m.Snapshot(), false)
	if e.fanout <= 1 {
		// Uniform on [n] (self included) on the clique; uniform over the
		// neighborhood on an explicit topology.
		if q, ok := e.peers.One(e.r); ok {
			out.Send(sim.ProcID(q), payload)
			e.inf.markSent(q, e.rum.Set)
		}
		return
	}
	e.kbuf = e.peers.KInto(e.kbuf[:0], e.fanout, e.r)
	for _, q := range e.kbuf {
		out.Send(sim.ProcID(q), payload)
		e.inf.markSent(q, e.rum.Set)
	}
}

// Quiescent implements sim.Node: asleep after the shut-down phase. Any new
// rumor or obligation arrives in a message, which keeps the world awake, so
// this predicate is stable while no messages are in flight. An isolated
// vertex is immediately quiescent: it can never transmit, so its
// informed-list obligations are unfillable and waiting on them would spin
// the world to timeout.
func (e *earsNode) Quiescent() bool {
	if e.peers.Degree() == 0 {
		return true
	}
	return e.inf.covered() && e.sleepCnt > e.shutdownSteps
}

// CloneNode implements sim.Cloner. Clones are unpooled: they run in
// hand-driven branched executions where nothing releases their snapshots.
func (e *earsNode) CloneNode() sim.Node {
	return &earsNode{
		Tracker:       e.CloneTracker(),
		id:            e.id,
		n:             e.n,
		sears:         e.sears,
		peers:         e.peers,
		inf:           e.inf.clone(),
		sleepCnt:      e.sleepCnt,
		shutdownSteps: e.shutdownSteps,
		fanout:        e.fanout,
		r:             e.r.Clone(),
	}
}

// Reset rebuilds the node in place as NewNode(id, p, r) would, drawing
// from r exactly as NewNode does (NewNode is a zero node and a Reset). The
// informed list is rebuilt, since payloads sent before the reset share its
// matrix.
func (e *earsNode) Reset(id sim.ProcID, p Params, r *rng.RNG) {
	p = p.WithDefaults()
	fanout, shutdown := 1, p.shutdownThreshold()
	if e.sears {
		// "Each process takes only one shut-down step."
		fanout, shutdown = p.searsFanout(), 1
	}
	e.Tracker.reset(p, id, NoValue)
	*e = earsNode{
		Tracker:       e.Tracker,
		id:            id,
		n:             p.N,
		sears:         e.sears,
		peers:         p.sampler(int(id)),
		inf:           newInformedList(p.N, p.Pool, p.obligationRows(int(id))),
		shutdownSteps: shutdown,
		fanout:        fanout,
		kbuf:          e.kbuf[:0],
		pool:          p.Pool,
		r:             r,
	}
	if e.sears && e.kbuf == nil {
		e.kbuf = make([]int, 0, fanout)
	}
}

// Asleep reports whether the node is past its shut-down phase (test hook).
func (e *earsNode) Asleep() bool { return e.Quiescent() }

// informedList maintains I(p) together with an incrementally updated
// uncovered-row set L(p). Rows only gain bits and V only grows, so:
// absorbing more informed pairs can only shrink L(p) (recheck uncovered
// rows only), while learning a new rumor can only grow L(p) (full
// recompute).
//
// On the paper's complete graph the obligation ranges over every row: the
// process keeps transmitting until I(p) shows each rumor in V(p) sent to
// each of the n processes, which the process can always force by sampling
// the missing target itself. On an explicit sparse topology that escape
// hatch does not exist — a process can only ever send to its neighbors —
// so the obligation is scoped to the neighborhood (obligated != nil):
// p sleeps once every neighbor row is covered. Coverage of distant
// processes follows hop by hop (each process delivers its rumor set to
// all its neighbors before resting, and learning a new rumor reopens the
// obligation), which is the property full gossip on a connected graph
// needs. Scoping is not an optimization: with [n]-wide obligations a node
// whose distant rows depend on hearsay can transmit forever after every
// potential informant has gone to sleep — a livelock the scenario fuzzer
// found on Erdős–Rényi graphs under skewed schedules.
//
// Covered rows are skipped. Every pair (r, q) in any process's I holds a
// rumor r of that process's V: I starts empty, a send adds V to a row, and
// a union adds a sender's I after its V was absorbed from the same
// payload. So while V has not grown since the last refresh, a received
// row q is a subset of V, and V is a subset of every obligated row outside
// L(p). Unions then touch only the rows in L(p), and a send to a covered
// row records nothing. The rule is exact and needs no state: a step that
// learns a rumor unions in full from that message on, and refresh
// recomputes L(p). On a sparse topology rows outside the obligation are
// not tracked, so unions stay flat there.
type informedList struct {
	n         int
	m         *bitset.Matrix
	obligated *bitset.Set // rows L(p) may range over; nil = all of [n]
	uncovered *bitset.Set // L(p): obligated rows q with V ⊄ I-row(q)
	scratch   []int32     // reusable row buffer for refresh
}

// newInformedList builds I(p). With a pool, the matrix (the largest object
// a gossip node snapshots into payloads) and the uncovered-row set draw
// their buffers from the pool instead of the allocator. obligated scopes
// the coverage obligation (nil = every row; see the type comment) and is
// retained by the informed list, which never mutates it.
func newInformedList(n int, pool *Pool, obligated *bitset.Set) *informedList {
	var m *bitset.Matrix
	var unc *bitset.Set
	if pool != nil {
		m = pool.bits.NewMatrix()
		unc = pool.bits.NewSet()
	} else {
		m = bitset.NewMatrix(n)
		unc = bitset.New(n)
	}
	if obligated == nil {
		unc.Fill()
	} else {
		unc.UnionWith(obligated)
	}
	return &informedList{n: n, m: m, obligated: obligated, uncovered: unc}
}

// union absorbs a received I(p) and reports whether it added a pair.
// vGrew reports whether V has grown since the last refresh.
func (il *informedList) union(other *bitset.Matrix, vGrew bool) bool {
	if !vGrew && il.obligated == nil {
		return il.m.UnionRows(other, il.uncovered)
	}
	return il.m.UnionWith(other)
}

// refresh recomputes L(p) after message absorption.
func (il *informedList) refresh(v *bitset.Set, vGrew, iGrew bool) {
	switch {
	case vGrew:
		il.uncovered.Clear()
		if il.obligated != nil {
			il.obligated.ForEach(func(q int) bool {
				if !il.m.RowContainsSet(q, v) {
					il.uncovered.Add(q)
				}
				return true
			})
			return
		}
		for q := 0; q < il.n; q++ {
			if !il.m.RowContainsSet(q, v) {
				il.uncovered.Add(q)
			}
		}
	case iGrew:
		il.scratch = il.uncovered.AppendDiff(nil, il.scratch[:0])
		for _, q := range il.scratch {
			if il.m.RowContainsSet(int(q), v) {
				il.uncovered.Remove(int(q))
			}
		}
	}
}

// markSent records (r, q) for every r ∈ v after a send to q (Figure 2
// lines 19–20), which by construction covers row q.
// Targets are obligated rows (every row on the clique, a neighbor on a
// topology), so a row outside L(p) is covered: it contains V already and
// records nothing.
func (il *informedList) markSent(q int, v *bitset.Set) {
	if !il.uncovered.Test(q) {
		return
	}
	il.m.RowUnionSet(q, v)
	il.uncovered.Remove(q)
}

// covered reports L(p) = ∅.
func (il *informedList) covered() bool { return il.uncovered.Empty() }

func (il *informedList) clone() *informedList {
	return &informedList{
		n: il.n, m: il.m.Clone(),
		obligated: il.obligated, // immutable after construction
		uncovered: il.uncovered.Clone(),
	}
}

// informedSnapshot wraps an optional informed-list snapshot in a payload.
type informedSnapshot struct {
	m *bitset.Matrix
}

// sizeBytes approximates a sparse wire encoding of the informed list,
// capped by the dense bitmap size.
func (s informedSnapshot) sizeBytes() int {
	if s.m == nil {
		return 0
	}
	n := s.m.Universe()
	dense := (n*n + 7) / 8
	// 8·c < dense exactly when c < ceil(dense/8), so counting stops there.
	limit := (dense + 7) / 8
	if c := s.m.CountUpTo(limit); c < limit {
		return 8 * c
	}
	return dense
}
