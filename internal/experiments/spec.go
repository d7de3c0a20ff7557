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
// fans its (point × seed) grid across the internal/runner worker pool;
// results are collected in grid order, so parallel output is bit-identical
// to a serial run.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/syncgossip"
)

// Env carries harness-wide execution settings threaded through every
// experiment entry point. The zero value is a serviceable default: Quick
// scale, GOMAXPROCS workers, per-scale seed counts.
type Env struct {
	// Scale selects experiment sizes (Quick or Full).
	Scale Scale
	// Workers caps the worker pool that the (point × seed) grid fans across
	// (0 = GOMAXPROCS, 1 = serial). Results are identical for every value.
	Workers int
	// Seeds overrides the per-point repetition count (0 = scale default).
	Seeds int
	// Shards splits every run into this many superstep shards (0/1 =
	// serial kernel; see sim.Config.Shards). Like Workers it only changes
	// how runs execute, never what they measure — points with their own
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

// Point is one measurement point: a run, measured over a seed grid. At
// each seed the grid sets the run's Seed and its graph's Seed to that
// seed, and a consensus run without Inputs proposes
// RandomInputs(N, seed+1000).
type Point struct {
	assemble.Run
	// Seeds is the point's repetition count (0 = the Env's count).
	Seeds int
	// SeedLabel switches the point's seed policy: empty replays the legacy
	// run-index seeds 0..Seeds-1 (the paper tables depend on them), while
	// a non-empty label derives each run's seed via runner.DeriveSeed, so
	// points with distinct labels never share a random stream (cmd/bench
	// labels every suite cell).
	SeedLabel string
}

// Measurement aggregates repeated runs of one point.
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

// Measure runs the point over its seeds and aggregates.
func Measure(p Point, env Env) (Measurement, error) {
	ms, errs := measureGrid([]Point{p}, env)
	return ms[0], errs[0]
}

// specSeed resolves the seed policy of one grid cell: legacy run-index
// seeds for unlabeled points, runner-derived per-label streams otherwise.
func specSeed(label string, run int) int64 {
	if label == "" {
		return int64(run)
	}
	return runner.DeriveSeed(0, label, int64(run))
}

// measureGrid measures many points on one worker pool. It fans their
// flattened (point × seed) grid across env.Workers and aggregates each
// point's runs in seed order, so every Measurement (and error) is exactly
// what a serial per-point loop would have produced.
func measureGrid(points []Point, env Env) ([]Measurement, []error) {
	points = append([]Point(nil), points...)
	ms := make([]Measurement, len(points))
	errs := make([]error, len(points))
	type cellRef struct{ point, run int }
	var cells []cellRef
	for i := range points {
		p := &points[i]
		if p.Seeds <= 0 {
			p.Seeds = env.seeds()
		}
		if p.Shards == 0 {
			p.Shards = env.Shards
		}
		// Grid cells run concurrently; a caller-shared snapshot pool would
		// be a data race, so every run builds its own (results are
		// identical either way).
		p.Gossip.Pool = nil
		// An unknown protocol fails before any seed runs.
		if p.Transport == "" {
			if _, errs[i] = syncgossip.ProtocolByName(p.Protocol); errs[i] != nil {
				continue
			}
		}
		for r := 0; r < p.Seeds; r++ {
			cells = append(cells, cellRef{point: i, run: r})
		}
	}

	results, cellErrs, _ := runner.Map(context.Background(), len(cells),
		runner.Options{Workers: env.Workers},
		func(_ context.Context, c int) (sim.Result, error) {
			p := points[cells[c].point]
			run := p.Run
			seed := specSeed(p.SeedLabel, cells[c].run)
			run.Seed, run.Topology.Seed = seed, seed
			if run.Transport != "" && run.Inputs == nil {
				run.Inputs = consensus.RandomInputs(run.N, seed+1000)
			}
			pc, err := assemble.Build(run)
			if err != nil {
				return sim.Result{}, err
			}
			w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
			if err != nil {
				return sim.Result{}, err
			}
			res, err := w.Run(pc.Evaluator)
			if run.Transport != "" {
				// Consensus "time" is when the last correct process decides.
				res.TimeComplexity = res.CompletedAt
			}
			return res, err
		})

	cursor := 0
	for i, p := range points {
		if errs[i] != nil {
			continue
		}
		var times, msgs, bytes []float64
		failures := 0
		bytesKnown := true
		for r := 0; r < p.Seeds; r++ {
			res, err := results[cursor], cellErrs[cursor]
			cursor++
			if err != nil {
				failures++
				continue
			}
			times = append(times, float64(res.TimeComplexity))
			msgs = append(msgs, float64(res.Messages))
			bytes = append(bytes, float64(res.Bytes))
			bytesKnown = bytesKnown && res.BytesKnown
		}
		ms[i] = Measurement{
			Time:       stats.Summarize(times),
			Messages:   stats.Summarize(msgs),
			Bytes:      stats.Summarize(bytes),
			BytesKnown: bytesKnown && failures < p.Seeds,
			Runs:       p.Seeds,
			Failures:   failures,
		}
		if failures == p.Seeds {
			name := p.Protocol
			if p.Transport != "" {
				name = "CR-" + string(p.Transport)
			}
			errs[i] = fmt.Errorf("experiments: all %d runs of %s failed", p.Seeds, name)
		}
	}
	return ms, errs
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
