package scenario

import (
	"fmt"
	"runtime"

	"repro/internal/assemble"
	"repro/internal/sim"
)

// kernelFault, when non-nil, mutates the kernel configuration just before
// the world is built. It exists solely for the oracle suite's self-tests:
// a test installs a fault that re-creates a kernel bug (e.g. a disabled
// crash budget) and asserts the oracles catch it with a minimized repro.
// Production builds never set it.
var kernelFault func(*sim.Config)

// Execution is one finished scenario run plus everything the oracles need
// to judge it: the kernel's own result, the independent invariant
// checker's observations, the event digest, and (when sampled) the digest
// of the unpooled twin run.
type Execution struct {
	// Spec is the scenario that ran.
	Spec Spec
	// Res is the kernel's result (complexity measures, completion flags).
	Res sim.Result
	// RunErr is the kernel's run error: nil, a timeout, or an evaluator
	// rejection. Oracles judge from primary evidence instead.
	RunErr error
	// Checker observed every event and re-verified the model online.
	Checker *sim.InvariantChecker
	// Digest fingerprints the event stream; Events counts it.
	Digest uint64
	Events int64
	// TwinRan marks that the unpooled twin executed; TwinDigest/TwinEvents
	// are its fingerprint.
	TwinRan    bool
	TwinDigest uint64
	TwinEvents int64
	// ShardTwinRan marks that the sharded twin executed; ShardTwinShards is
	// the resolved shard count it used (ShardsAuto resolved to CPUs), and
	// ShardDigest/ShardEvents are its fingerprint.
	ShardTwinRan    bool
	ShardTwinShards int
	ShardDigest     uint64
	ShardEvents     int64

	view  sim.View
	nodes []sim.Node
}

// Execute runs a scenario through the pooled sim kernel with the checker
// and digest tracers riding along, then — for sampled specs — repeats it
// with pooling disabled to witness the pooled ≡ unpooled contract, and/or
// through the sharded superstep kernel to witness sharded ≡ serial. The
// returned error reports an unrunnable spec; runtime failures (timeouts,
// evaluator rejections, invariant breaches) are data in the Execution,
// judged by CheckAll.
func Execute(spec Spec) (*Execution, error) {
	return ExecuteTraced(spec, nil)
}

// ExecuteTraced is Execute with an extra observer teed into the primary
// run's tracer chain — the seam telemetry rides (e.g. telemetry.Recorder,
// telemetry.Timeline). The extra tracer observes the pooled run only, never
// the unpooled twin, and — like all tracers — cannot affect the run: the
// digest with and without an extra tracer is identical, which the
// determinism tests pin.
func ExecuteTraced(spec Spec, extra sim.Tracer) (*Execution, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ex := &Execution{Spec: spec}
	chk := sim.NewInvariantChecker(spec.N, spec.F, sim.Time(spec.D), spec.maxGap())
	dig := sim.NewDigestTracer()
	view, nodes, res, runErr, err := runOnce(spec, false, 0, sim.Tee(chk, dig, extra))
	if err != nil {
		return nil, err
	}
	ex.view, ex.nodes, ex.Res, ex.RunErr = view, nodes, res, runErr
	ex.Checker = chk
	ex.Digest, ex.Events = dig.Sum(), dig.Events()

	if spec.CheckEquivalence {
		twin := sim.NewDigestTracer()
		if _, _, _, _, err := runOnce(spec, true, 0, twin); err != nil {
			return nil, err
		}
		ex.TwinRan = true
		ex.TwinDigest, ex.TwinEvents = twin.Sum(), twin.Events()
	}
	if spec.Shards != 0 {
		shards := spec.Shards
		if shards == ShardsAuto {
			shards = runtime.NumCPU()
		}
		twin := sim.NewDigestTracer()
		if _, _, _, _, err := runOnce(spec, false, shards, twin); err != nil {
			return nil, err
		}
		ex.ShardTwinRan = true
		ex.ShardTwinShards = shards
		ex.ShardDigest, ex.ShardEvents = twin.Sum(), twin.Events()
	}
	return ex, nil
}

// runOnce executes the spec once. noPool disables snapshot pooling (the
// unpooled twin); shards > 1 selects the sharded superstep kernel (the
// sharded twin); the tracer observes every event.
func runOnce(spec Spec, noPool bool, shards int, tracer sim.Tracer) (sim.View, []sim.Node, sim.Result, error, error) {
	r := spec.Run()
	r.Gossip.NoPool = noPool
	r.Shards = shards
	pc, err := assemble.Build(r)
	if err != nil {
		return nil, nil, sim.Result{}, nil, err
	}
	if kernelFault != nil {
		kernelFault(&pc.Config)
	}
	w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
	if err != nil {
		return nil, nil, sim.Result{}, nil, err
	}
	w.SetTracer(tracer)
	res, runErr := w.Run(pc.Evaluator)
	return w, pc.Nodes, res, runErr, nil
}

// runDetail renders the kernel's own verdict for report details.
func (ex *Execution) runDetail() string {
	switch {
	case ex.RunErr != nil:
		return ex.RunErr.Error()
	case !ex.Res.Completed:
		return fmt.Sprintf("not completed: %s", ex.Res.Detail)
	default:
		return "completed"
	}
}
