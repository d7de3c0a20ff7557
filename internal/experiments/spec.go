// Package experiments is the measurement harness behind every table and
// figure of the paper:
//
//	Table1        — gossip protocols: time and message complexity
//	Table2        — consensus protocols (Canetti–Rabin + gossip get-core)
//	Figure1       — the Theorem 1 adaptive-adversary construction
//	CostOfAsynchrony — Corollary 2 ratios
//	Ablation*     — design-choice sweeps
//
// The same entry points back the cmd/tables CLI, the cmd/bench artifact
// generator, and the root bench suite. Every entry point takes an Env and
// fans its (spec × seed) grid across the internal/runner worker pool;
// results are collected in grid order, so parallel output is bit-identical
// to a serial run.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/syncgossip"
	"repro/internal/topology"
)

// Env carries harness-wide execution settings threaded through every
// experiment entry point. The zero value is a serviceable default: Quick
// scale, GOMAXPROCS workers, per-scale seed counts.
type Env struct {
	// Scale selects experiment sizes (Quick or Full).
	Scale Scale
	// Workers caps the worker pool that the (spec × seed) grid fans across
	// (0 = GOMAXPROCS, 1 = serial). Results are identical for every value.
	Workers int
	// Seeds overrides the per-point repetition count (0 = scale default).
	Seeds int
	// Shards splits every run into this many superstep shards (0/1 =
	// serial kernel; see sim.Config.Shards). Like Workers it only changes
	// how runs execute, never what they measure — specs with their own
	// Shards keep it.
	Shards int
}

// seeds resolves the per-point repetition count.
func (e Env) seeds() int {
	if e.Seeds > 0 {
		return e.Seeds
	}
	return e.Scale.seeds()
}

// GossipSpec describes one gossip measurement point.
type GossipSpec struct {
	Proto  string // core protocol name or syncgossip name
	N, F   int
	D      sim.Time
	Delta  sim.Time
	Preset string
	Seeds  int
	Gossip core.Params
	// Topology selects a communication graph family (empty = complete).
	// A fresh graph is generated per seed, so measurements aggregate over
	// graph instances as well as executions.
	Topology              string
	TopoParam, TopoParam2 float64
	// Workers caps the worker pool for this spec's seed grid when the spec
	// is measured standalone (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Shards splits each run into superstep shards (0/1 = serial kernel;
	// results are identical for every value).
	Shards int
	// SeedLabel switches the spec's seed policy: empty replays the legacy
	// run-index seeds 0..Seeds-1 (the paper tables depend on them), while
	// a non-empty label derives each run's seed via runner.DeriveSeed, so
	// specs with distinct labels never share a random stream (cmd/bench
	// labels every suite cell).
	SeedLabel string
}

// withDefaults mirrors the historical serial defaults.
func (s GossipSpec) withDefaults() GossipSpec {
	if s.Seeds <= 0 {
		s.Seeds = 3
	}
	if s.Preset == "" {
		s.Preset = adversary.PresetStandard
	}
	return s
}

// Measurement aggregates repeated runs of one spec.
type Measurement struct {
	Time     stats.Summary // paper time complexity (steps)
	Messages stats.Summary
	Bytes    stats.Summary
	// BytesKnown reports that every successful run measured real payload
	// sizes (sim.Result.BytesKnown), distinguishing Bytes = 0 meaning
	// "zero bytes" from "payloads don't report sizes". False when no run
	// succeeded.
	BytesKnown bool
	Runs       int
	Failures   int // runs whose evaluator rejected or that timed out
}

// MeasureGossip runs the spec over its seeds and aggregates.
func MeasureGossip(spec GossipSpec) (Measurement, error) {
	ms, errs := measureGossipGrid([]GossipSpec{spec}, Env{Workers: spec.Workers})
	return ms[0], errs[0]
}

// specSeed resolves the seed policy of one grid cell: legacy run-index
// seeds for unlabeled specs, runner-derived per-label streams otherwise.
func specSeed(label string, run int) int64 {
	if label == "" {
		return int64(run)
	}
	return runner.DeriveSeed(0, label, int64(run))
}

// gridJob is one spec's slice of a flattened (spec × seed) measurement
// grid: how many runs it owns, how to execute one, and how to read the
// spec kind's time measure out of a result.
type gridJob struct {
	seeds int
	err   error // pre-resolution error (e.g. unknown protocol); skips the runs
	run   func(seed int64) (sim.Result, error)
	seed  func(run int) int64
	// timeOf extracts the time-complexity measure (gossip: quiescence;
	// consensus: last correct decision).
	timeOf func(sim.Result) float64
	// failAll builds the error reported when every run of the job fails.
	failAll func() error
}

// runMeasureGrid fans the jobs' flattened run grid across one worker pool
// and aggregates each job's cells in run order, so every Measurement (and
// error) is exactly what a serial per-spec loop would have produced.
func runMeasureGrid(jobs []gridJob, workers int) ([]Measurement, []error) {
	ms := make([]Measurement, len(jobs))
	errs := make([]error, len(jobs))
	type cellRef struct{ job, run int }
	var cells []cellRef
	for i, job := range jobs {
		if job.err != nil {
			errs[i] = job.err
			continue
		}
		for r := 0; r < job.seeds; r++ {
			cells = append(cells, cellRef{job: i, run: r})
		}
	}

	results, cellErrs, _ := runner.Map(context.Background(), len(cells),
		runner.Options{Workers: workers},
		func(_ context.Context, c int) (sim.Result, error) {
			job := jobs[cells[c].job]
			return job.run(job.seed(cells[c].run))
		})

	cursor := 0
	for i, job := range jobs {
		if errs[i] != nil {
			continue
		}
		var times, msgs, bytes []float64
		failures := 0
		bytesKnown := true
		for r := 0; r < job.seeds; r++ {
			res, err := results[cursor], cellErrs[cursor]
			cursor++
			if err != nil {
				failures++
				continue
			}
			times = append(times, job.timeOf(res))
			msgs = append(msgs, float64(res.Messages))
			bytes = append(bytes, float64(res.Bytes))
			bytesKnown = bytesKnown && res.BytesKnown
		}
		ms[i] = Measurement{
			Time:       stats.Summarize(times),
			Messages:   stats.Summarize(msgs),
			Bytes:      stats.Summarize(bytes),
			BytesKnown: bytesKnown && failures < job.seeds,
			Runs:       job.seeds,
			Failures:   failures,
		}
		if failures == job.seeds {
			errs[i] = job.failAll()
		}
	}
	return ms, errs
}

// measureGossipGrid measures many gossip specs on one worker pool.
func measureGossipGrid(specs []GossipSpec, env Env) ([]Measurement, []error) {
	jobs := make([]gridJob, len(specs))
	for i, spec := range specs {
		spec := spec.withDefaults()
		if spec.Shards == 0 {
			spec.Shards = env.Shards
		}
		// Resolve the protocol up front (serial MeasureGossip fails before
		// running any seed on an unknown name).
		proto, err := syncgossip.ProtocolByName(spec.Proto)
		jobs[i] = gridJob{
			seeds: spec.Seeds,
			err:   err,
			run:   func(seed int64) (sim.Result, error) { return runGossipOnce(proto, spec, seed) },
			seed:  func(run int) int64 { return specSeed(spec.SeedLabel, run) },
			timeOf: func(res sim.Result) float64 {
				return float64(res.TimeComplexity)
			},
			failAll: func() error {
				return fmt.Errorf("experiments: all %d runs of %s failed", spec.Seeds, spec.Proto)
			},
		}
	}
	return runMeasureGrid(jobs, env.Workers)
}

func runGossipOnce(proto core.Protocol, spec GossipSpec, seed int64) (sim.Result, error) {
	cfg := sim.Config{N: spec.N, F: spec.F, D: spec.D, Delta: spec.Delta, Seed: seed, Shards: spec.Shards}
	p := spec.Gossip
	p.N, p.F = spec.N, spec.F
	p.Shards = spec.Shards
	// Grid cells run concurrently; a caller-shared snapshot pool would be a
	// data race, so every run builds its own (results are identical either
	// way — pooling never touches randomness or metrics).
	p.Pool = nil
	if spec.Topology != "" {
		g, err := topology.Build(topology.Spec{
			Family: spec.Topology, N: spec.N,
			Param: spec.TopoParam, Param2: spec.TopoParam2, Seed: seed,
		})
		if err != nil {
			return sim.Result{}, err
		}
		p.Graph = g
		cfg.Graph = g
	}
	nodes, err := core.NewNodes(proto, p, seed)
	if err != nil {
		return sim.Result{}, err
	}
	adv, err := adversary.ByName(spec.Preset, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(proto.Evaluator(p.WithDefaults()))
}

// ConsensusSpec describes one consensus measurement point.
type ConsensusSpec struct {
	Transport consensus.TransportKind
	N, F      int
	D         sim.Time
	Delta     sim.Time
	Preset    string
	Seeds     int
	Gossip    core.Params
	LocalCoin bool
	// SplitInputs proposes a perfect 0/1 split instead of random inputs —
	// the adversarial vote pattern that forces coin rounds.
	SplitInputs bool
	// Workers caps the worker pool for this spec's seed grid when the spec
	// is measured standalone (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Shards splits each run into superstep shards, as in GossipSpec.
	Shards int
	// SeedLabel switches the seed policy, as in GossipSpec.
	SeedLabel string
}

// withDefaults mirrors the historical serial defaults.
func (s ConsensusSpec) withDefaults() ConsensusSpec {
	if s.Seeds <= 0 {
		s.Seeds = 3
	}
	if s.Preset == "" {
		s.Preset = adversary.PresetStandard
	}
	return s
}

// measureConsensusGrid is measureGossipGrid for consensus specs.
func measureConsensusGrid(specs []ConsensusSpec, env Env) ([]Measurement, []error) {
	jobs := make([]gridJob, len(specs))
	for i, spec := range specs {
		spec := spec.withDefaults()
		if spec.Shards == 0 {
			spec.Shards = env.Shards
		}
		jobs[i] = gridJob{
			seeds: spec.Seeds,
			run:   func(seed int64) (sim.Result, error) { return runConsensusOnce(spec, seed) },
			seed:  func(run int) int64 { return specSeed(spec.SeedLabel, run) },
			// Consensus "time" is when the last correct process decides.
			timeOf: func(res sim.Result) float64 {
				return float64(res.CompletedAt)
			},
			failAll: func() error {
				return fmt.Errorf("experiments: all %d runs of CR-%s failed", spec.Seeds, spec.Transport)
			},
		}
	}
	return runMeasureGrid(jobs, env.Workers)
}

func runConsensusOnce(spec ConsensusSpec, seed int64) (sim.Result, error) {
	// Consensus transports embed their gossip nodes unpooled, so the shard
	// count only needs to reach the kernel config.
	cfg := sim.Config{N: spec.N, F: spec.F, D: spec.D, Delta: spec.Delta, Seed: seed, Shards: spec.Shards}
	p := consensus.Params{
		N: spec.N, F: spec.F,
		Transport: spec.Transport,
		Gossip:    spec.Gossip,
	}
	if spec.LocalCoin {
		p.Coin = consensus.NewLocalCoin(seed)
	}
	inputs := consensus.RandomInputs(spec.N, seed+1000)
	if spec.SplitInputs {
		for i := range inputs {
			inputs[i] = uint8(i % 2)
		}
	}
	nodes, err := consensus.NewNodes(p, inputs, seed)
	if err != nil {
		return sim.Result{}, err
	}
	adv, err := adversary.ByName(spec.Preset, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(consensus.Evaluator{Inputs: inputs})
}

// Scale selects experiment sizes: Quick keeps CI runtimes small, Full is
// the paper-scale configuration `tables -full` runs.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// String names the scale (used by cmd/bench's artifact).
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// gossipNs returns the n sweep for gossip scaling fits.
func (s Scale) gossipNs() []int {
	if s == Full {
		return []int{64, 128, 256, 512}
	}
	return []int{32, 64, 128}
}

// consensusNs returns the n sweep for consensus.
func (s Scale) consensusNs() []int {
	if s == Full {
		return []int{32, 64, 128, 256}
	}
	return []int{16, 32, 64}
}

// seeds returns the per-point repetition count.
func (s Scale) seeds() int {
	if s == Full {
		return 5
	}
	return 2
}
