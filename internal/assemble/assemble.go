// Package assemble builds every simulated run of the repository in one
// place. A Run states the paper's model — n, f, d, δ, an oblivious
// adversary, a communication graph — and what runs on it: a gossip
// protocol, or Canetti–Rabin consensus over one of the gossip get-core
// transports (Tables 1 and 2 measure the same protocols both ways). Build
// turns it into exactly what sim.NewWorld and World.Run take.
//
// The root API, the experiment harness, the scenario fuzzer and its twins,
// the live cluster and cmd/bench all assemble here, so each decision has
// one rule: the complete graph is the nil graph, the gossip parameters
// follow the run's n, f, graph and shard count, and consensus inputs
// default to RandomInputs(n, seed).
package assemble

import (
	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/syncgossip"
	"repro/internal/topology"
)

// Run describes one simulated execution.
type Run struct {
	// Protocol names a gossip protocol of the core or syncgossip
	// registry. It is ignored when Transport is set.
	Protocol string
	// Transport, when set, makes the run a consensus run whose get-core
	// uses this transport.
	Transport consensus.TransportKind
	// N, F, D and Delta are the paper's system parameters.
	N, F     int
	D, Delta sim.Time
	// Seed drives the nodes' random streams, the consensus coin and, for a
	// preset adversary, the adversary's stream.
	Seed int64
	// MaxSteps caps the run (0 = sim.DefaultMaxSteps).
	MaxSteps sim.Time
	// Gossip tunes the protocol, or the gossip inside the consensus
	// transport. Its N, F, Graph and Shards are set from the run.
	Gossip core.Params
	// Topology is the communication graph; its N is set from the run.
	Topology topology.Spec
	// Adversary drives the run. When nil, the preset named Preset is
	// built from the run's configuration.
	Adversary sim.Adversary
	Preset    string
	// Shards and ShardWorkers select the sharded kernel, as in sim.Config.
	Shards, ShardWorkers int
	// LocalCoin swaps consensus's common coin for Ben-Or local coins.
	LocalCoin bool
	// Inputs are the consensus proposals (nil = RandomInputs(N, Seed)).
	Inputs []uint8
}

// Pieces are the arguments of sim.NewWorld and World.Run. Callers may
// wrap the nodes or the adversary, or edit the config, before building
// the world.
type Pieces struct {
	Config    sim.Config
	Nodes     []sim.Node
	Adversary sim.Adversary
	Evaluator sim.Evaluator
	// Inputs are a consensus run's proposals (nil for gossip).
	Inputs []uint8
}

// Graph builds the graph s describes. The complete graph, named or
// defaulted, is nil: the paper's model, in which any process may message
// any other and targets are drawn uniformly from [n].
func Graph(s topology.Spec) (topology.Graph, error) {
	if s.Family == "" || s.Family == topology.FamilyComplete {
		return nil, nil
	}
	return topology.Build(s)
}

// Build assembles r.
func Build(r Run) (Pieces, error) {
	r.Topology.N = r.N
	graph, err := Graph(r.Topology)
	if err != nil {
		return Pieces{}, err
	}
	pc := Pieces{Config: sim.Config{
		N: r.N, F: r.F, D: r.D, Delta: r.Delta,
		Seed: r.Seed, MaxSteps: r.MaxSteps,
		Graph: graph, Shards: r.Shards, ShardWorkers: r.ShardWorkers,
	}}
	gp := r.Gossip
	gp.N, gp.F, gp.Graph, gp.Shards = r.N, r.F, graph, r.Shards
	if r.Transport == "" {
		proto, err := syncgossip.ProtocolByName(r.Protocol)
		if err != nil {
			return Pieces{}, err
		}
		if pc.Nodes, err = core.NewNodes(proto, gp, r.Seed); err != nil {
			return Pieces{}, err
		}
		pc.Evaluator = proto.Evaluator(gp)
	} else {
		p := consensus.Params{N: r.N, F: r.F, Transport: r.Transport, Gossip: gp}
		if r.LocalCoin {
			p.Coin = consensus.NewLocalCoin(r.Seed)
		}
		pc.Inputs = r.Inputs
		if pc.Inputs == nil {
			pc.Inputs = consensus.RandomInputs(r.N, r.Seed)
		}
		if pc.Nodes, err = consensus.NewNodes(p, pc.Inputs, r.Seed); err != nil {
			return Pieces{}, err
		}
		pc.Evaluator = consensus.Evaluator{Inputs: pc.Inputs}
	}
	pc.Adversary = r.Adversary
	if pc.Adversary == nil {
		adv, err := adversary.ByName(r.Preset, pc.Config)
		if err != nil {
			return Pieces{}, err
		}
		pc.Adversary = adv
	}
	return pc, nil
}
