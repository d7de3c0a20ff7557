package repro

import (
	"context"
	"fmt"

	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Spec is a typed run specification accepted by Run: one of GossipSpec,
// ConsensusSpec, LowerBoundSpec or FuzzSpec. The interface is sealed — the
// four spec kinds are the experiments this library knows how to execute.
type Spec interface {
	runSpec()
}

// TelemetryRecorder is the streaming per-run metrics aggregator (O(1) per
// event, mergeable across runs and shards): attach one with WithTelemetry
// and read its Snapshot after Run returns.
type TelemetryRecorder = telemetry.Recorder

// NewTelemetryRecorder returns a recorder for an n-process run.
func NewTelemetryRecorder(n int) *TelemetryRecorder { return telemetry.NewRecorder(n) }

// Option adjusts how Run executes a spec. Options are pure mechanism: none
// of them changes a run's events, results or random draws — a spec's
// outcome is the same for every combination of options (WithLean trims
// what the result materializes, never what happened).
type Option func(*runOptions)

type runOptions struct {
	shards    int
	workers   int
	tracer    Tracer
	telemetry *TelemetryRecorder
	lean      bool
}

func buildOptions(opts []Option) runOptions {
	var o runOptions
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// observers composes a run's event observers into one tracer, nil when
// there are none: extra (the engine's own, e.g. the gossip Timeline)
// first, then WithTracer, then WithTelemetry.
func (o runOptions) observers(extra Tracer) Tracer {
	var rec Tracer
	if o.telemetry != nil {
		rec = o.telemetry // a nil *TelemetryRecorder must not become a non-nil Tracer
	}
	return sim.Tee(extra, o.tracer, rec)
}

// WithShards executes a gossip or consensus run as s deterministic
// supersteps over contiguous id-range shards (see sim.Config.Shards).
// Output is bit-identical for every shard count; 0 and 1 select the serial
// kernel. Fuzz and lower-bound specs draw their own shard counts and
// ignore this option.
func WithShards(s int) Option {
	return func(o *runOptions) { o.shards = s }
}

// WithWorkers caps execution parallelism: the goroutines driving shard
// phases in a single sharded run, the concurrent runs of RunMany, and the
// workers of a FuzzSpec session (everywhere: 0 = GOMAXPROCS-derived
// default, 1 = serial). Results never depend on it.
func WithWorkers(w int) Option {
	return func(o *runOptions) { o.workers = w }
}

// WithTracer attaches an event tracer to a gossip or consensus run,
// composing with the gossip Timeline and WithTelemetry. Tracers are
// observation-only. Sharded runs invoke the tracer in exact serial event
// order, from one goroutine.
func WithTracer(t Tracer) Option {
	return func(o *runOptions) { o.tracer = t }
}

// WithTelemetry attaches a streaming TelemetryRecorder to a gossip or
// consensus run. The recorder's O(1)-per-event summaries are how large
// (sharded) runs are measured without materializing event logs.
func WithTelemetry(rec *TelemetryRecorder) Option {
	return func(o *runOptions) { o.telemetry = rec }
}

// WithLean runs in the reduced-memory regime for large n: protocol nodes
// keep O(1) per-process time bookkeeping instead of Θ(n) acquisition-time
// arrays (see ProtocolParams.Lean), and GossipResult.Rumors — the Θ(n²)
// per-process rumor listing — is left nil. Completion verdicts, counts and
// digests are unchanged.
func WithLean() Option {
	return func(o *runOptions) { o.lean = true }
}

// RunResult is the outcome of Run: exactly one field is non-nil, matching
// the spec kind that produced it.
type RunResult struct {
	// Gossip is set for GossipSpec runs.
	Gossip *GossipResult
	// Consensus is set for ConsensusSpec runs.
	Consensus *ConsensusResult
	// LowerBound is set for LowerBoundSpec runs.
	LowerBound *LowerBoundReport
	// Fuzz is set for FuzzSpec runs.
	Fuzz *FuzzSummary
}

// Run executes one specification and returns its typed result. It is the
// single entry point of the library; RunMany fans it across a batch.
//
// The context cancels what is cancellable: a FuzzSpec session observes it
// between scenarios, and an already-cancelled context aborts any run
// before it starts. A single simulation, once started, runs to completion
// — the kernel is a deterministic pure function of its spec.
func Run(ctx context.Context, spec Spec, opts ...Option) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, fuzz := spec.(FuzzSpec); !fuzz {
		// A fuzz session observes the context itself (cancelled scenarios
		// are counted as skipped, not failed); everything else aborts
		// before starting.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	o := buildOptions(opts)
	switch s := spec.(type) {
	case GossipSpec:
		g, err := runGossipSpec(s, o)
		return &RunResult{Gossip: g}, err
	case ConsensusSpec:
		c, err := runConsensusSpec(s, o)
		return &RunResult{Consensus: c}, err
	case LowerBoundSpec:
		rep, err := runLowerBoundSpec(s)
		if err != nil {
			return nil, err
		}
		return &RunResult{LowerBound: &rep}, nil
	case FuzzSpec:
		sum, err := scenario.Fuzz(scenario.Options{
			Runs:         s.Runs,
			MasterSeed:   s.Seed,
			FirstIndex:   s.FirstIndex,
			Workers:      o.workers,
			ShrinkBudget: s.ShrinkBudget,
			Context:      ctx,
		})
		if err != nil {
			return nil, err
		}
		return &RunResult{Fuzz: sum}, nil
	default:
		return nil, fmt.Errorf("repro: unknown spec type %T", spec)
	}
}

// RunMany executes one run per spec, fanned across a worker pool sized by
// WithWorkers. results[i] and errs[i] correspond to specs[i] and are
// exactly what Run(ctx, specs[i], opts...) would have returned —
// simulations share no state, so parallel batches reproduce serial loops
// bit for bit. Runs that have not started when the context fires report
// the context's error.
//
// WithTracer and WithTelemetry attach one observer to every run and so
// require WithWorkers(1); concurrent batches reject them per item rather
// than race on the shared observer.
func RunMany[S Spec](ctx context.Context, specs []S, opts ...Option) (results []*RunResult, errs []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	if (o.tracer != nil || o.telemetry != nil) && o.workers != 1 {
		errs = make([]error, len(specs))
		results = make([]*RunResult, len(specs))
		for i := range errs {
			errs[i] = fmt.Errorf("repro: WithTracer/WithTelemetry share one observer across runs; RunMany requires WithWorkers(1) with them")
		}
		return results, errs
	}
	results, errs, _ = runner.Map(ctx, len(specs),
		runner.Options{Workers: o.workers},
		func(_ context.Context, i int) (*RunResult, error) {
			spec := Spec(specs[i])
			if g, ok := spec.(GossipSpec); ok {
				// A caller-provided snapshot pool is sequential-only (its
				// free lists are unsynchronized); concurrent runs must each
				// build their own, so strip it rather than race on it.
				g.Tuning.Pool = nil
				spec = g
			}
			return Run(ctx, spec, opts...)
		})
	return results, errs
}

// runGossipSpec is the gossip engine behind Run.
func runGossipSpec(spec GossipSpec, o runOptions) (*GossipResult, error) {
	spec = spec.withDefaults()
	spec.Tuning.Lean = spec.Tuning.Lean || o.lean
	pc, err := assemble.Build(assemble.Run{
		Protocol: spec.Protocol,
		N:        spec.N, F: spec.F,
		D: Time(spec.D), Delta: Time(spec.Delta),
		Seed: spec.Seed, MaxSteps: Time(spec.MaxSteps),
		Gossip: spec.Tuning,
		Topology: topology.Spec{
			Family: spec.Topology, Param: spec.TopologyParam, Param2: spec.TopologyParam2, Seed: spec.Seed,
		},
		Preset: spec.Adversary,
		Shards: o.shards, ShardWorkers: o.workers,
	})
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
	if err != nil {
		return nil, err
	}
	var tl *telemetry.Timeline
	var timeline Tracer
	if spec.Timeline {
		tl = telemetry.NewTimeline(spec.N, 160)
		timeline = tl
	}
	if tracer := o.observers(timeline); tracer != nil {
		w.SetTracer(tracer)
	}
	res, runErr := w.Run(pc.Evaluator)
	out := &GossipResult{
		Completed:       res.Completed,
		TimeSteps:       int64(res.TimeComplexity),
		Messages:        res.Messages,
		Bytes:           res.Bytes,
		BytesKnown:      res.BytesKnown,
		Crashes:         res.Crashes,
		OffEdgeDrops:    res.OffEdgeDrops,
		OutOfRangeDrops: res.OutOfRangeDrops,
	}
	if tl != nil {
		out.Timeline = tl.Render()
	}
	for q := 0; q < spec.N; q++ {
		if !w.Alive(sim.ProcID(q)) {
			out.Crashed = append(out.Crashed, q)
		}
	}
	if !o.lean {
		// Materializing Rumors is Θ(n²); lean runs skip it so results of
		// very large sweeps stay O(n).
		for q := 0; q < spec.N; q++ {
			if h, ok := pc.Nodes[q].(core.RumorHolder); ok {
				out.Rumors = append(out.Rumors, h.RumorSet().Elements())
			} else {
				out.Rumors = append(out.Rumors, nil)
			}
		}
	}
	if runErr != nil {
		return out, fmt.Errorf("repro: gossip run failed: %w", runErr)
	}
	return out, nil
}

// runConsensusSpec is the consensus engine behind Run.
func runConsensusSpec(spec ConsensusSpec, o runOptions) (*ConsensusResult, error) {
	spec = spec.withDefaults()
	spec.Tuning.Lean = spec.Tuning.Lean || o.lean
	pc, err := assemble.Build(assemble.Run{
		Transport: consensus.TransportKind(spec.Transport),
		N:         spec.N, F: spec.F,
		D: Time(spec.D), Delta: Time(spec.Delta),
		Seed: spec.Seed, MaxSteps: Time(spec.MaxSteps),
		Gossip: spec.Tuning,
		Topology: topology.Spec{
			Family: spec.Topology, Param: spec.TopologyParam, Param2: spec.TopologyParam2, Seed: spec.Seed,
		},
		Preset: spec.Adversary,
		Shards: o.shards, ShardWorkers: o.workers,
		LocalCoin: spec.LocalCoin, Inputs: spec.Inputs,
	})
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
	if err != nil {
		return nil, err
	}
	if tracer := o.observers(nil); tracer != nil {
		w.SetTracer(tracer)
	}
	res, runErr := w.Run(pc.Evaluator)
	out := &ConsensusResult{
		Completed:    res.Completed,
		TimeSteps:    int64(res.CompletedAt),
		Messages:     res.Messages,
		Bytes:        res.Bytes,
		BytesKnown:   res.BytesKnown,
		Crashes:      res.Crashes,
		Inputs:       pc.Inputs,
		OffEdgeDrops: res.OffEdgeDrops,
	}
	for q := 0; q < spec.N; q++ {
		cn := pc.Nodes[q].(*consensus.Node)
		if decided, v, _ := cn.Decided(); decided {
			out.Decision = v
		}
		if w.Alive(sim.ProcID(q)) && cn.Rounds() > out.MaxRounds {
			out.MaxRounds = cn.Rounds()
		}
	}
	if runErr != nil {
		return out, fmt.Errorf("repro: consensus run failed: %w", runErr)
	}
	return out, nil
}

// runLowerBoundSpec is the Theorem 1 engine behind Run.
func runLowerBoundSpec(spec LowerBoundSpec) (LowerBoundReport, error) {
	if spec.Protocol == "" {
		spec.Protocol = ProtoEARS
	}
	proto, err := core.ByName(spec.Protocol)
	if err != nil {
		return LowerBoundReport{}, err
	}
	return lowerbound.Run(proto, core.Params{}, lowerbound.Config{
		N: spec.N, F: spec.F, Seed: spec.Seed, Trials: spec.Trials,
	})
}
