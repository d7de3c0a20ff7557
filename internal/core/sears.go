package core

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// SEARS is the paper's Spamming Epidemic Asynchronous Rumor Spreading
// protocol (§4): ears with two modifications — each local step sends to
// Θ(n^ε·log n) random targets instead of one, and the shut-down phase
// lasts a single step.
//
// Against an oblivious adversary, for every constant ε < 1: time
// O(n/(ε(n−f))·(d+δ)) and messages O(n^{2+ε}/(ε(n−f))·log n·(d+δ))
// (Theorem 7). For f ≤ n/2 this is constant-time gossip (w.r.t. n) with
// subquadratic message complexity.
type SEARS struct{}

var _ Protocol = SEARS{}

// Name implements Protocol.
func (SEARS) Name() string { return NameSEARS }

// NewNode implements Protocol.
func (SEARS) NewNode(id sim.ProcID, p Params, r *rng.RNG) sim.Node {
	e := &earsNode{sears: true}
	e.Reset(id, p, r)
	return e
}

// Evaluator implements Protocol: sears promises full gossip.
func (SEARS) Evaluator(p Params) sim.Evaluator {
	return FullGossipEvaluator{Params: p.WithDefaults()}
}
