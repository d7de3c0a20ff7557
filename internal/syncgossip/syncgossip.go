// Package syncgossip implements the synchronous gossip baselines from
// Table 1's first row: protocols that know a priori that d = δ = 1 and may
// therefore use globally synchronized rounds and a fixed stopping round.
//
// The paper cites Chlebus–Kowalski [9]: a deterministic synchronous gossip
// built from expander graphs that completes in O(polylog n) rounds with
// O(n polylog n) messages, even against an adaptive adversary crashing up
// to n−1 processes. The explicit expander families of [9] are out of scope
// for a reproduction; per DESIGN.md §3 we substitute:
//
//   - Deterministic: gossip over seeded pseudo-random regular multigraphs
//     (a fresh graph per round, fixed by the protocol specification, so
//     every process can compute it locally) — random regular graphs are
//     expanders w.h.p., which is exactly the property [9] derandomizes.
//   - Epidemic: the classic randomized synchronous push protocol in the
//     style of Karp et al. [19], generalized from one rumor to all rumors.
//
// Both run on the sim kernel under the synchronous schedule; their stopping
// rule is a fixed round count — the thing the paper shows is impossible to
// port to the asynchronous world without paying Theorem 1's price.
package syncgossip

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Synchronous protocol names accepted by ProtocolByName.
const (
	NameSyncEpidemic      = "sync-epidemic"
	NameSyncDeterministic = "sync-deterministic"
)

// Names lists the synchronous baselines.
func Names() []string { return []string{NameSyncEpidemic, NameSyncDeterministic} }

// ProtocolByName resolves any gossip protocol by name: the asynchronous
// protocols of core.Names() and the synchronous baselines of Names(). It
// is the one resolver the public runner, the experiments, the fuzzer and
// the cluster share.
func ProtocolByName(name string) (core.Protocol, error) {
	if p, err := core.ByName(name); err == nil {
		return p, nil
	}
	switch name {
	case NameSyncEpidemic:
		return Epidemic{}, nil
	case NameSyncDeterministic:
		return Deterministic{}, nil
	}
	return nil, fmt.Errorf("syncgossip: unknown protocol %q (have %v)", name, append(core.Names(), Names()...))
}

// rounds returns the fixed stopping round: c · ⌈n/(n−f)⌉ · log₂n. The
// n/(n−f) factor compensates for pushes wasted on crashed processes; for
// f a constant fraction of n this is O(log n) rounds, matching the polylog
// row of Table 1.
func rounds(p core.Params, c float64) int {
	surv := p.N - p.F
	if surv < 1 {
		surv = 1
	}
	r := int(math.Ceil(c * float64(p.N) / float64(surv) * float64(log2(p.N))))
	if r < 2 {
		r = 2
	}
	return r
}

func log2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// Epidemic is the randomized synchronous push protocol: for a fixed number
// of rounds, every process sends its full rumor set to fanout random
// targets, then stops. Stopping is unconditional — synchrony makes the
// round counter a global clock.
type Epidemic struct {
	// Fanout is the number of random targets per round (default 2).
	Fanout int
	// RoundsC scales the round count (default 3).
	RoundsC float64
}

var _ core.Protocol = Epidemic{}

// Name implements core.Protocol.
func (Epidemic) Name() string { return NameSyncEpidemic }

// NewNode implements core.Protocol.
func (e Epidemic) NewNode(id sim.ProcID, p core.Params, r *rng.RNG) sim.Node {
	p = p.WithDefaults()
	fanout := e.Fanout
	if fanout <= 0 {
		fanout = 2
	}
	c := e.RoundsC
	if c <= 0 {
		c = 3
	}
	return &epidemicNode{
		Tracker: p.NewTracker(id, core.NoValue),
		id:      id,
		n:       p.N,
		peers:   topology.NewSampler(int(id), p.N, p.Graph),
		fanout:  fanout,
		rounds:  rounds(p, c),
		pool:    p.Pool,
		r:       r,
	}
}

// Evaluator implements core.Protocol.
func (Epidemic) Evaluator(p core.Params) sim.Evaluator {
	return core.FullGossipEvaluator{Params: p.WithDefaults()}
}

type epidemicNode struct {
	core.Tracker
	id     sim.ProcID
	n      int
	peers  topology.Sampler
	fanout int
	rounds int
	round  int
	pool   *core.Pool
	kbuf   []int
	r      *rng.RNG
}

var (
	_ sim.Node         = (*epidemicNode)(nil)
	_ core.RumorHolder = (*epidemicNode)(nil)
)

// ID implements sim.Node.
func (e *epidemicNode) ID() sim.ProcID { return e.id }

// Step implements sim.Node: one synchronous round.
func (e *epidemicNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	for _, m := range inbox {
		if pl, ok := m.Payload.(*core.GossipPayload); ok {
			e.Absorb(pl.Rumors, now)
		}
	}
	if e.round >= e.rounds {
		return
	}
	e.round++
	payload := e.pool.Gossip(e.Rumors().Snapshot(), nil, false)
	e.kbuf = e.peers.KInto(e.kbuf[:0], e.fanout, e.r)
	for _, q := range e.kbuf {
		out.Send(sim.ProcID(q), payload)
	}
}

// Quiescent implements sim.Node: true once the fixed round budget is spent.
func (e *epidemicNode) Quiescent() bool { return e.round >= e.rounds }

// Deterministic is the Chlebus–Kowalski-style derandomized protocol: in
// round t every process sends its rumor set to its neighbors in a fixed
// graph G_t. The graphs are degree-g circulant multigraphs with offsets
// drawn from a protocol-specified seed (shared by all processes, part of
// the algorithm, not a random input): each round uses fresh offsets, so
// over log n rounds the union of the graphs mixes like an expander.
//
// Deterministic assumes the complete communication graph: its circulant
// offsets are part of the protocol specification and ignore any
// configured topology, so on a sparse topology its off-edge sends are
// dropped by the world (and counted in Metrics.OffEdgeDrops).
type Deterministic struct {
	// Degree is the per-round out-degree (default ⌈log₂ n⌉, computed per n).
	Degree int
	// RoundsC scales the round count (default 2).
	RoundsC float64
	// GraphSeed fixes the graph family; it is part of the protocol
	// specification and known to every process (default 0x5EED).
	GraphSeed int64
}

var _ core.Protocol = Deterministic{}

// Name implements core.Protocol.
func (Deterministic) Name() string { return NameSyncDeterministic }

// NewNode implements core.Protocol.
func (d Deterministic) NewNode(id sim.ProcID, p core.Params, _ *rng.RNG) sim.Node {
	p = p.WithDefaults()
	deg := d.Degree
	if deg <= 0 {
		deg = log2(p.N)
	}
	if deg > p.N-1 {
		deg = p.N - 1
	}
	c := d.RoundsC
	if c <= 0 {
		c = 2
	}
	seed := d.GraphSeed
	if seed == 0 {
		seed = 0x5EED
	}
	nRounds := rounds(p, c)
	// Every node derives the same offset table from the protocol seed.
	gr := rng.New(seed)
	offsets := make([][]int, nRounds)
	for t := range offsets {
		offsets[t] = make([]int, deg)
		for j := range offsets[t] {
			offsets[t][j] = 1 + gr.Intn(p.N-1)
		}
	}
	return &deterministicNode{
		Tracker: p.NewTracker(id, core.NoValue),
		id:      id,
		n:       p.N,
		offsets: offsets,
		pool:    p.Pool,
	}
}

// Evaluator implements core.Protocol.
func (Deterministic) Evaluator(p core.Params) sim.Evaluator {
	return core.FullGossipEvaluator{Params: p.WithDefaults()}
}

type deterministicNode struct {
	core.Tracker
	id      sim.ProcID
	n       int
	offsets [][]int
	round   int
	pool    *core.Pool
}

var (
	_ sim.Node         = (*deterministicNode)(nil)
	_ core.RumorHolder = (*deterministicNode)(nil)
)

// ID implements sim.Node.
func (d *deterministicNode) ID() sim.ProcID { return d.id }

// Step implements sim.Node.
func (d *deterministicNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	for _, m := range inbox {
		if pl, ok := m.Payload.(*core.GossipPayload); ok {
			d.Absorb(pl.Rumors, now)
		}
	}
	if d.round >= len(d.offsets) {
		return
	}
	payload := d.pool.Gossip(d.Rumors().Snapshot(), nil, false)
	for _, off := range d.offsets[d.round] {
		q := (int(d.id) + off) % d.n
		out.Send(sim.ProcID(q), payload)
	}
	d.round++
}

// Quiescent implements sim.Node.
func (d *deterministicNode) Quiescent() bool { return d.round >= len(d.offsets) }
