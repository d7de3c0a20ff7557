// Package adversary provides the schedule, delay and crash policies that
// instantiate the paper's adversaries.
//
// An oblivious adversary (paper §1) fixes the schedule, the per-message
// delays and the crash pattern in advance of the execution. Obliviousness
// is obtained by construction here: every policy in this package derives
// its decisions only from the time step, the process identifiers and a
// pre-seeded random stream — never from node state, payloads or coin flips
// of the protocol. Compose the three policy kinds with Compose.
//
// Adaptive adversaries react to the execution: Composed forwards every send
// to any component implementing sim.SendObserver, while the full Theorem 1
// lower-bound adversary lives in package lowerbound because it needs to
// drive executions and clone process state.
package adversary

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Schedule decides which processes take a local step at each time.
type Schedule interface {
	// Append appends the processes scheduled at time t to buf.
	Append(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID
}

// DelayPolicy decides message delivery delays.
type DelayPolicy interface {
	// Delay returns the delivery delay for a message sent at time t; the
	// simulator clamps the result to [1, D].
	Delay(t sim.Time, from, to sim.ProcID) sim.Time
}

// CrashPolicy decides which processes crash at each time.
type CrashPolicy interface {
	// Append appends the processes crashing at the start of time t to buf.
	Append(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID
}

// Composed is an Adversary assembled from the three policy kinds.
type Composed struct {
	schedule Schedule
	delays   DelayPolicy
	crashes  CrashPolicy
}

var _ sim.Adversary = (*Composed)(nil)

// Compose builds an adversary from a schedule, delay policy and crash
// policy. Nil components default to: every process every step, delay 1, no
// crashes.
func Compose(s Schedule, d DelayPolicy, c CrashPolicy) *Composed {
	if s == nil {
		s = EveryStep{}
	}
	if d == nil {
		d = FixedDelay(1)
	}
	if c == nil {
		c = NoCrashes{}
	}
	return &Composed{schedule: s, delays: d, crashes: c}
}

// Schedule implements sim.Adversary.
func (a *Composed) Schedule(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	return a.schedule.Append(t, v, buf)
}

// Delay implements sim.Adversary.
func (a *Composed) Delay(t sim.Time, from, to sim.ProcID) sim.Time {
	return a.delays.Delay(t, from, to)
}

// Crashes implements sim.Adversary.
func (a *Composed) Crashes(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	return a.crashes.Append(t, v, buf)
}

// ObserveSend forwards send observations to any component that wants them
// (adaptive policies).
func (a *Composed) ObserveSend(m sim.Message) {
	if o, ok := a.schedule.(sim.SendObserver); ok {
		o.ObserveSend(m)
	}
	if o, ok := a.delays.(sim.SendObserver); ok {
		o.ObserveSend(m)
	}
	if o, ok := a.crashes.(sim.SendObserver); ok {
		o.ObserveSend(m)
	}
}

// Benign returns the friendliest adversary: synchronous schedule, delay 1,
// no crashes. Useful as a baseline and in examples.
func Benign() *Composed { return Compose(nil, nil, nil) }

// Standard returns the default oblivious adversary used across benchmarks:
// a rotating stride schedule saturating the δ bound, uniform random delays
// in [1, d], and crashes spread over the run per the given plan seed.
//
// The stream seed must be independent of the protocol seed so the adversary
// remains oblivious.
func Standard(cfg sim.Config) *Composed {
	r := rng.New(cfg.Seed).Fork(0xADBE)
	return Compose(
		NewStride(cfg.N, cfg.Delta, r.Fork(1)),
		NewUniformDelay(cfg.D, r.Fork(2)),
		NewRandomCrashes(cfg.N, cfg.F, spreadWindow(cfg), r.Fork(3)),
	)
}

// partitionHealTime places the partition heal far enough into the run to
// force cross-half traffic through the slow links first.
func partitionHealTime(cfg sim.Config) sim.Time {
	return 4 * (cfg.D + cfg.Delta) * sim.Time(log2ceil(cfg.N))
}

// spreadWindow picks a window over which Standard spreads crashes: long
// enough to exercise the epoch structure of the protocols' analyses.
func spreadWindow(cfg sim.Config) sim.Time {
	w := 8 * (cfg.D + cfg.Delta) * sim.Time(log2ceil(cfg.N))
	if w < 8 {
		w = 8
	}
	return w
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Named adversary presets, used by the experiment harness and CLI tools.
const (
	// PresetBenign: synchronous, delay 1, no crashes.
	PresetBenign = "benign"
	// PresetStandard: stride schedule, uniform delays, spread crashes.
	PresetStandard = "standard"
	// PresetCrashStorm: all f crashes at t=0 (tests the n/(n−f) factor).
	PresetCrashStorm = "crashstorm"
	// PresetMaxDelay: every message takes exactly d; stride schedule.
	PresetMaxDelay = "maxdelay"
	// PresetStaggered: crashes in log n waves, doubling epoch lengths, the
	// worst case for the ears epoch analysis.
	PresetStaggered = "staggered"
	// PresetPartition: the network splits into two halves whose cross
	// links run at the full delay bound d for the first part of the run,
	// then heal to delay 1; no crashes. Exercises the "pathological
	// situations" motivation of §1 (the e-mail that took two days).
	PresetPartition = "partition"
)

// Presets lists the named adversary presets.
func Presets() []string {
	return []string{PresetBenign, PresetStandard, PresetCrashStorm, PresetMaxDelay, PresetStaggered, PresetPartition}
}

// ByName builds a preset adversary for a configuration.
func ByName(name string, cfg sim.Config) (*Composed, error) {
	r := rng.New(cfg.Seed).Fork(0xADBE)
	switch name {
	case PresetBenign:
		return Benign(), nil
	case PresetStandard, "":
		return Standard(cfg), nil
	case PresetCrashStorm:
		return Compose(
			NewStride(cfg.N, cfg.Delta, r.Fork(1)),
			NewUniformDelay(cfg.D, r.Fork(2)),
			NewCrashStorm(cfg.N, cfg.F, 0, r.Fork(3)),
		), nil
	case PresetMaxDelay:
		return Compose(
			NewStride(cfg.N, cfg.Delta, r.Fork(1)),
			FixedDelay(cfg.D),
			NewRandomCrashes(cfg.N, cfg.F, spreadWindow(cfg), r.Fork(3)),
		), nil
	case PresetStaggered:
		return Compose(
			NewStride(cfg.N, cfg.Delta, r.Fork(1)),
			NewUniformDelay(cfg.D, r.Fork(2)),
			NewStaggeredCrashes(cfg.N, cfg.F, cfg.D+cfg.Delta, r.Fork(3)),
		), nil
	case PresetPartition:
		return Compose(
			NewStride(cfg.N, cfg.Delta, r.Fork(1)),
			NewPartitionDelay(cfg.N, cfg.D, partitionHealTime(cfg)),
			NoCrashes{},
		), nil
	default:
		return nil, fmt.Errorf("adversary: unknown preset %q (have %v)", name, Presets())
	}
}
