// Package scenario is the deterministic simulation-fuzzing subsystem: a
// FoundationDB-style harness that explores the (protocol × topology ×
// adversary × n/f/d/δ) space the paper's theorems quantify over.
//
// From one master seed the generator derives an unbounded stream of
// scenario specs — random protocols and system parameters, random graphs
// from internal/topology, and random oblivious adversaries composed from
// the policy kinds in internal/adversary (crash plans and storms, pairwise
// and partition delays, skewed and rotating schedules). Every spec is a
// plain serializable value: executing it is a pure function of its fields,
// so a failure found on any machine replays exactly on any other.
//
// Executions run through the pooled sim kernel, in parallel via
// internal/runner (bit-identical to serial), and every run is checked
// against the invariant-oracle catalog in oracles.go. On a violation a
// shrinker (shrink.go) minimizes the spec while preserving the failing
// oracle and the harness emits a ScenarioReport (report.go) with the seed,
// the original spec and the minimized repro; cmd/fuzz replays reports via
// -repro.
package scenario

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/syncgossip"
	"repro/internal/topology"
)

// Schedule kinds accepted by ScheduleSpec.Kind.
const (
	SchedEvery       = "every"        // every process every step
	SchedStride      = "stride"       // rotating random phases, redrawn per period
	SchedFixedStride = "fixed-stride" // deterministic round-robin partition
	SchedSkewed      = "skewed"       // pinned slow subset at the δ limit
)

// Delay kinds accepted by DelaySpec.Kind.
const (
	DelayFixed     = "fixed"     // every message takes exactly Value steps
	DelayUniform   = "uniform"   // uniform per-send in [1, d]
	DelayPairwise  = "pairwise"  // fixed per-(from,to) pair in [1, d]
	DelayPartition = "partition" // two halves, cross links at d until HealAt
)

// ScheduleSpec describes an oblivious schedule declaratively.
type ScheduleSpec struct {
	// Kind is one of the Sched* constants.
	Kind string `json:"kind"`
	// SlowFrac is the skewed schedule's slow fraction (ignored otherwise).
	SlowFrac float64 `json:"slow_frac,omitempty"`
	// Seed feeds the schedule's pre-committed stream (stride phase redraws,
	// skewed slow-set selection).
	Seed int64 `json:"seed,omitempty"`
}

// DelaySpec describes an oblivious delay policy declaratively.
type DelaySpec struct {
	// Kind is one of the Delay* constants.
	Kind string `json:"kind"`
	// Value is the fixed delay for DelayFixed (clamped to [1, D]).
	Value int64 `json:"value,omitempty"`
	// HealAt is the partition heal time for DelayPartition.
	HealAt int64 `json:"heal_at,omitempty"`
	// Seed feeds the pre-committed stream of the uniform and pairwise kinds.
	Seed int64 `json:"seed,omitempty"`
}

// CrashEvent is one planned crash: process Proc crashes at time At. Plans
// are explicit (time, process) lists rather than generator seeds so the
// shrinker can delete individual events while preserving a failure, and so
// a report reader sees the exact crash pattern at a glance.
type CrashEvent struct {
	At   int64 `json:"at"`
	Proc int   `json:"proc"`
}

// Spec is one fully materialized scenario: everything needed to reproduce
// an execution bit for bit. The zero value is not runnable; specs come
// from Generate or from a deserialized ScenarioReport.
type Spec struct {
	// Protocol is a gossip protocol name (core or syncgossip registry).
	Protocol string `json:"protocol"`
	// N, F, D, Delta are the paper's system parameters.
	N     int   `json:"n"`
	F     int   `json:"f"`
	D     int64 `json:"d"`
	Delta int64 `json:"delta"`
	// Seed drives the protocol nodes' random streams.
	Seed int64 `json:"seed"`
	// MaxSteps is the horizon: the step budget before the run is declared
	// hung. Zero selects the kernel's generous default.
	MaxSteps int64 `json:"max_steps,omitempty"`

	// Topology is the graph family ("" = the paper's complete graph) with
	// its parameters and generation seed, as in topology.Spec.
	Topology       string  `json:"topology,omitempty"`
	TopologyParam  float64 `json:"topology_param,omitempty"`
	TopologyParam2 float64 `json:"topology_param2,omitempty"`
	TopologySeed   int64   `json:"topology_seed,omitempty"`

	// Schedule, Delay and Crashes are the three oblivious policy kinds the
	// adversary composes (adversary.Compose).
	Schedule ScheduleSpec `json:"schedule"`
	Delay    DelaySpec    `json:"delay"`
	// Crashes is the pre-committed crash plan. It may list more events
	// than F: the kernel must enforce the budget, and the crash-budget
	// oracle verifies that it did.
	Crashes []CrashEvent `json:"crashes,omitempty"`

	// ExpectComplete marks scenarios whose protocol guarantees completion
	// on this configuration; the completion oracle only fires for them.
	// (naive is the paper's ablation that legitimately fails; sparse
	// topologies with crashes can disconnect.)
	ExpectComplete bool `json:"expect_complete"`
	// Majority marks majority-gossip protocols (tears): the completion
	// oracle checks the ⌊n/2⌋+1 threshold instead of full gathering.
	Majority bool `json:"majority,omitempty"`
	// CheckEquivalence re-runs the scenario with pooling disabled and
	// requires an identical event digest (pooled ≡ unpooled), sampled on a
	// subset of runs because it doubles the cost.
	CheckEquivalence bool `json:"check_equivalence,omitempty"`
	// Shards, when non-zero, re-runs the scenario through the sharded
	// superstep kernel with this shard count and requires an identical
	// event digest (sharded ≡ serial). The primary run always uses the
	// serial kernel, so golden digests and every other oracle are
	// unaffected. ShardsAuto resolves to the machine's CPU count at
	// execution; the digest contract makes that machine dependence
	// harmless — any shard count must reproduce the same stream.
	Shards int `json:"shards,omitempty"`
}

// ShardsAuto is the Spec.Shards sentinel for "one shard per CPU",
// resolved at execution time.
const ShardsAuto = -1

// Validate checks that the spec describes a runnable scenario.
func (s Spec) Validate() error {
	if _, err := syncgossip.ProtocolByName(s.Protocol); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	switch {
	case s.N < 1:
		return fmt.Errorf("scenario: N = %d, need N >= 1", s.N)
	case s.F < 0 || s.F >= s.N:
		return fmt.Errorf("scenario: F = %d, need 0 <= F < N = %d", s.F, s.N)
	case s.D < 1 || s.Delta < 1:
		return fmt.Errorf("scenario: d = %d, δ = %d, need both >= 1", s.D, s.Delta)
	case s.MaxSteps < 0:
		return fmt.Errorf("scenario: MaxSteps = %d, must be >= 0", s.MaxSteps)
	case s.Shards < ShardsAuto:
		return fmt.Errorf("scenario: Shards = %d, must be >= 0 or ShardsAuto", s.Shards)
	}
	switch s.Schedule.Kind {
	case SchedEvery, SchedStride, SchedFixedStride, SchedSkewed:
	default:
		return fmt.Errorf("scenario: unknown schedule kind %q", s.Schedule.Kind)
	}
	switch s.Delay.Kind {
	case DelayFixed, DelayUniform, DelayPairwise, DelayPartition:
	default:
		return fmt.Errorf("scenario: unknown delay kind %q", s.Delay.Kind)
	}
	for _, c := range s.Crashes {
		if c.Proc < 0 || c.Proc >= s.N {
			return fmt.Errorf("scenario: crash event for out-of-range process %d", c.Proc)
		}
		if c.At < 0 {
			return fmt.Errorf("scenario: crash event at negative time %d", c.At)
		}
	}
	_, err := assemble.Graph(s.graph())
	return err
}

// Run is the simulated run the spec describes: its primary execution, on
// the serial kernel with pooling on, which the twins vary. Its adversary
// composes the spec's schedule, delay and crash policies.
func (s Spec) Run() assemble.Run {
	return assemble.Run{
		Protocol: s.Protocol,
		N:        s.N, F: s.F, D: sim.Time(s.D), Delta: sim.Time(s.Delta),
		Seed: s.Seed, MaxSteps: sim.Time(s.MaxSteps),
		Topology:  s.graph(),
		Adversary: adversary.Compose(s.schedule(), s.delay(), s.crashes()),
	}
}

// graph describes the spec's topology.
func (s Spec) graph() topology.Spec {
	return topology.Spec{
		Family: s.Topology, N: s.N,
		Param: s.TopologyParam, Param2: s.TopologyParam2,
		Seed: s.TopologySeed,
	}
}

// schedule builds the spec's schedule policy.
func (s Spec) schedule() adversary.Schedule {
	r := rng.New(s.Schedule.Seed)
	switch s.Schedule.Kind {
	case SchedStride:
		return adversary.NewStride(s.N, sim.Time(s.Delta), r)
	case SchedFixedStride:
		return adversary.NewFixedStride(s.N, sim.Time(s.Delta))
	case SchedSkewed:
		return adversary.NewSkewedStride(s.N, sim.Time(s.Delta), s.Schedule.SlowFrac, r)
	default: // SchedEvery
		return adversary.EveryStep{}
	}
}

// delay builds the spec's delay policy.
func (s Spec) delay() adversary.DelayPolicy {
	r := rng.New(s.Delay.Seed)
	switch s.Delay.Kind {
	case DelayUniform:
		return adversary.NewUniformDelay(sim.Time(s.D), r)
	case DelayPairwise:
		return adversary.NewPairwiseDelay(s.N, sim.Time(s.D), r)
	case DelayPartition:
		return adversary.NewPartitionDelay(s.N, sim.Time(s.D), sim.Time(s.Delay.HealAt))
	default: // DelayFixed
		v := s.Delay.Value
		if v < 1 {
			v = 1
		}
		if v > s.D {
			v = s.D
		}
		return adversary.FixedDelay(v)
	}
}

// crashes builds the spec's crash policy from the explicit plan.
func (s Spec) crashes() adversary.CrashPolicy {
	if len(s.Crashes) == 0 {
		return adversary.NoCrashes{}
	}
	times := make([]sim.Time, len(s.Crashes))
	procs := make([]sim.ProcID, len(s.Crashes))
	for i, c := range s.Crashes {
		times[i] = sim.Time(c.At)
		procs[i] = sim.ProcID(c.Proc)
	}
	return adversary.NewCrashPlan(times, procs)
}

// maxGap returns the step-gap bound the spec's schedule is allowed to use:
// δ for strictly periodic schedules, 2δ−1 for stride (phase redraw lets
// consecutive steps drift a full period apart).
func (s Spec) maxGap() sim.Time {
	if s.Schedule.Kind == SchedStride {
		return 2*sim.Time(s.Delta) - 1
	}
	return sim.Time(s.Delta)
}

// Label returns a compact human-readable summary of the scenario, used in
// progress output and reports.
func (s Spec) Label() string {
	topo := s.Topology
	if topo == "" {
		topo = topology.FamilyComplete
	}
	label := fmt.Sprintf("%s n=%d f=%d d=%d δ=%d %s/%s/%d-crashes topo=%s seed=%d",
		s.Protocol, s.N, s.F, s.D, s.Delta,
		s.Schedule.Kind, s.Delay.Kind, len(s.Crashes), topo, s.Seed)
	switch {
	case s.Shards == ShardsAuto:
		label += " shards=auto"
	case s.Shards != 0:
		label += fmt.Sprintf(" shards=%d", s.Shards)
	}
	return label
}
