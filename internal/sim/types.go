// Package sim implements the partially synchronous system model of
// Georgiou, Gilbert, Guerraoui and Kowalski, "On the Complexity of
// Asynchronous Gossip" (PODC 2008), Section 1 "System Model":
//
//   - n message-passing processes with identifiers 0..n-1 (the paper uses
//     1..n); up to f < n crash.
//   - Time advances in discrete steps. At every step an adversary schedules
//     an arbitrary subset of the live processes. A scheduled process
//     receives a subset of its pending messages, computes, and sends
//     messages.
//   - For an execution, d bounds message delivery: a message sent at time t
//     is received at any step of its target at time >= t+d (the adversary
//     may deliver earlier). δ bounds relative process speed: every live
//     process is scheduled at least once in any window of δ steps.
//   - An oblivious adversary fixes schedule, crashes and delays in advance;
//     an adaptive adversary may react to the execution.
//
// The simulator is deterministic: a run is a pure function of the
// configuration and seed. Time complexity is measured in simulated steps
// and message complexity in point-to-point messages, exactly the two
// quantities bounded by the paper's theorems.
package sim

import (
	"fmt"

	"repro/internal/topology"
)

// Time is a discrete simulation time step.
type Time int64

// ProcID identifies a process; valid IDs are 0..N-1.
type ProcID int32

// Payload is protocol-defined message content. Payloads must be treated as
// immutable once sent: the simulator may deliver the same Payload value to
// its target while the sender retains a reference (protocols share
// copy-on-write snapshots to make wide fan-outs cheap).
type Payload interface{}

// Releasable is optionally implemented by payloads whose storage is pooled.
// The world retains a payload once per message it enqueues and releases it
// once per consumed delivery (after the addressed process's Step returned),
// so a payload shared by a fan-out of k messages sees k retains and up to k
// releases; the payload recycles its buffers when the count returns to
// zero. Messages that are never delivered (pending to a crashed process,
// left over at a timeout) are simply never released — pooled payloads must
// degrade to garbage collection in that case.
//
// Receivers, tracers and adversaries must not retain a releasable payload
// (or anything reachable from it) beyond the callback or Step that handed
// it to them. Protocols that do retain payloads across steps — the
// consensus layer buffers messages for future instances — must use plain
// unpooled payloads, which this contract leaves untouched.
type Releasable interface {
	Retain()
	Release()
}

// Sizer is optionally implemented by payloads to report an approximate wire
// size in bytes. The paper counts messages, not bits ("this remains a
// subject for future work"); byte accounting is provided as an extension
// and reported alongside message counts when payloads implement Sizer.
type Sizer interface {
	SizeBytes() int
}

// Message is a point-to-point message in transit.
type Message struct {
	From    ProcID
	To      ProcID
	SentAt  Time
	ReadyAt Time // earliest step of To at which it is delivered
	Payload Payload
}

// Node is the protocol state machine for one process. Implementations must
// be deterministic given their injected randomness stream.
type Node interface {
	// ID returns the node's process identifier.
	ID() ProcID
	// Step executes one local step: the node consumes the delivered inbox
	// (which it must not retain) and emits sends through out.
	Step(now Time, inbox []Message, out *Outbox)
	// Quiescent reports whether the node will send no further messages
	// unless it receives new information. The world is quiet when every
	// live node is quiescent and no message is in flight.
	Quiescent() bool
}

// Cloner is implemented by nodes that support state branching. The adaptive
// adversary of Theorem 1 clones processes to estimate, over their future
// coin flips, the expected number of messages they would send in isolation.
type Cloner interface {
	CloneNode() Node
}

// View is the read-only view of the world given to adversaries, evaluators
// and tracers.
type View interface {
	// N returns the number of processes.
	N() int
	// Now returns the current time step.
	Now() Time
	// Alive reports whether p has not crashed.
	Alive(p ProcID) bool
	// AliveCount returns the number of live processes.
	AliveCount() int
	// Node returns the protocol node for p (read-only use).
	Node(p ProcID) Node
	// MessagesSent returns the total point-to-point messages sent so far.
	MessagesSent() int64
	// StepsTaken returns the number of local steps p has executed. A
	// process that never stepped cannot have initiated communication;
	// evaluators use this for validity checks.
	StepsTaken(p ProcID) int64
	// Graph returns the communication topology the world delivers over,
	// or nil for the unrestricted complete graph of the paper's model.
	Graph() topology.Graph
}

// Adversary controls scheduling, delivery delay and crashes. Oblivious
// adversaries must derive all decisions from pre-committed randomness and
// the time step only — never from the View's node states or message
// payloads. Adaptive adversaries may use everything.
type Adversary interface {
	// Schedule appends to buf the processes scheduled at time t and returns
	// the extended slice. Crashed processes in the result are skipped. The
	// schedule must respect the δ bound for live processes.
	Schedule(t Time, v View, buf []ProcID) []ProcID
	// Delay returns the delivery delay for a message sent at time t from
	// one process to another; the world clamps it to [1, D].
	Delay(t Time, from, to ProcID) Time
	// Crashes appends to buf the processes to crash at the start of time t
	// and returns the extended slice. The world enforces the crash budget F.
	Crashes(t Time, v View, buf []ProcID) []ProcID
}

// SendObserver is optionally implemented by adaptive adversaries that react
// to message sends (e.g. "crash every process that talks to the target").
type SendObserver interface {
	ObserveSend(m Message)
}

// Outcome is the verdict of an Evaluator at the end of a run.
type Outcome struct {
	// OK reports whether the protocol's correctness condition holds.
	OK bool
	// CompletedAt is the earliest time at which the condition held (e.g.
	// for gossip, when the last correct process gathered its last required
	// rumor); meaningful only when OK.
	CompletedAt Time
	// Detail describes a violation when !OK.
	Detail string
}

// Evaluator judges a finished run. It is invoked once, after the world has
// gone quiet or timed out, with full access to node states.
type Evaluator interface {
	Evaluate(v View) Outcome
}

// Config parameterizes a world.
type Config struct {
	// N is the number of processes.
	N int
	// F is the maximum number of crash failures tolerated/injected.
	F int
	// D is the maximum message delay the adversary may impose (d >= 1).
	D Time
	// Delta is the maximum scheduling gap (δ >= 1).
	Delta Time
	// Seed drives all randomness derived by the world (nodes fork
	// per-process streams from it; adversaries receive their own stream).
	Seed int64
	// MaxSteps aborts the run if the world has not gone quiet. Zero means
	// DefaultMaxSteps(cfg).
	MaxSteps Time
	// Graph restricts communication to a topology: sends along non-edges
	// are dropped (and counted in Metrics.OffEdgeDrops) instead of
	// delivered. Nil preserves the paper's model — any process may message
	// any other. Protocols receive the same graph through their parameters
	// so they sample targets from their neighborhoods; the world-level
	// filter is the enforcement backstop, not the steering mechanism.
	Graph topology.Graph
	// Shards splits the run into this many contiguous id-range shards
	// executed as deterministic supersteps (see shard.go). 0 or 1 selects
	// the serial kernel; counts above N are clamped. Sharding is invisible
	// to results: every run is bit-identical — event for event, draw for
	// draw — for every shard count, which the equivalence tests and the
	// fuzzer's sharded≡serial oracle enforce.
	Shards int
	// ShardWorkers caps the goroutines executing shard phases (0 =
	// min(Shards, GOMAXPROCS)). Like Shards, it never affects results.
	ShardWorkers int
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("sim: N = %d, need N >= 1", c.N)
	case c.F < 0 || c.F >= c.N:
		return fmt.Errorf("sim: F = %d, need 0 <= F < N = %d", c.F, c.N)
	case c.D < 1:
		return fmt.Errorf("sim: D = %d, need D >= 1", c.D)
	case c.Delta < 1:
		return fmt.Errorf("sim: Delta = %d, need Delta >= 1", c.Delta)
	case c.MaxSteps < 0:
		return fmt.Errorf("sim: MaxSteps = %d, must be >= 0", c.MaxSteps)
	case c.Graph != nil && c.Graph.N() != c.N:
		return fmt.Errorf("sim: topology has %d vertices for N = %d", c.Graph.N(), c.N)
	}
	return validateShardConfig(c)
}

// DefaultMaxSteps returns a generous step budget for the configuration:
// enough for every protocol in this repository to terminate with large
// slack, while still catching non-terminating executions in tests.
func DefaultMaxSteps(c Config) Time {
	n := Time(c.N)
	if n < 2 {
		n = 2
	}
	survivors := Time(c.N - c.F)
	if survivors < 1 {
		survivors = 1
	}
	// ~ c * (n/(n-f)) * log^2 n * (d+δ) with a large constant, floored.
	log2 := Time(1)
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	steps := 512 * (n / survivors) * log2 * log2 * (c.D + c.Delta)
	if steps < 4096 {
		steps = 4096
	}
	return steps
}
