package adversary

import (
	"sort"

	"repro/internal/rng"
	"repro/internal/sim"
)

// NoCrashes is the failure-free crash policy.
type NoCrashes struct{}

var _ CrashPolicy = NoCrashes{}

// Append implements CrashPolicy.
func (NoCrashes) Append(_ sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	return buf
}

// planned is a pre-committed crash plan: a sorted list of (time, process)
// pairs fixed before the execution (oblivious by construction).
type planned struct {
	times []sim.Time
	procs []sim.ProcID
	next  int
}

func (p *planned) Append(t sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	for p.next < len(p.times) && p.times[p.next] <= t {
		buf = append(buf, p.procs[p.next])
		p.next++
	}
	return buf
}

// newPlanned sorts and wraps a crash plan.
func newPlanned(times []sim.Time, procs []sim.ProcID) *planned {
	idx := make([]int, len(times))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
	st := make([]sim.Time, len(times))
	sp := make([]sim.ProcID, len(procs))
	for i, j := range idx {
		st[i] = times[j]
		sp[i] = procs[j]
	}
	return &planned{times: st, procs: sp}
}

// NewCrashPlan builds a crash policy from an explicit list of (time,
// process) pairs. Pairs beyond the simulator's crash budget F are ignored
// at run time by the kernel.
func NewCrashPlan(times []sim.Time, procs []sim.ProcID) CrashPolicy {
	return newPlanned(times, procs)
}

// NewRandomCrashes crashes f distinct processes, chosen uniformly, at times
// uniform in [0, window]. All randomness comes from the pre-committed
// stream r.
func NewRandomCrashes(n, f int, window sim.Time, r *rng.RNG) CrashPolicy {
	if f <= 0 {
		return NoCrashes{}
	}
	victims := r.Sample(n, f)
	times := make([]sim.Time, len(victims))
	procs := make([]sim.ProcID, len(victims))
	for i, v := range victims {
		procs[i] = sim.ProcID(v)
		if window <= 0 {
			times[i] = 0
		} else {
			times[i] = sim.Time(r.Intn(int(window) + 1))
		}
	}
	return newPlanned(times, procs)
}

// NewCrashStorm crashes f distinct processes all at the same time t0. With
// t0 = 0 this realizes the "only n−f processes were ever alive" regime that
// maximizes the n/(n−f) factor in the ears analysis.
func NewCrashStorm(n, f int, t0 sim.Time, r *rng.RNG) CrashPolicy {
	if f <= 0 {
		return NoCrashes{}
	}
	victims := r.Sample(n, f)
	times := make([]sim.Time, len(victims))
	procs := make([]sim.ProcID, len(victims))
	for i, v := range victims {
		procs[i] = sim.ProcID(v)
		times[i] = t0
	}
	return newPlanned(times, procs)
}

// NewStaggeredCrashes crashes half the remaining budget in waves at times
// unit, 2·unit, 4·unit, 8·unit, ... — the epoch-doubling pattern that the
// ears analysis (§3.2) identifies as the structure of the worst case: each
// epoch halves the set of live processes until the first "long" epoch.
func NewStaggeredCrashes(n, f int, unit sim.Time, r *rng.RNG) CrashPolicy {
	if f <= 0 {
		return NoCrashes{}
	}
	if unit < 1 {
		unit = 1
	}
	victims := r.Sample(n, f)
	times := make([]sim.Time, 0, len(victims))
	procs := make([]sim.ProcID, 0, len(victims))
	remaining := len(victims)
	at := unit
	i := 0
	for remaining > 0 {
		wave := (remaining + 1) / 2
		for k := 0; k < wave; k++ {
			procs = append(procs, sim.ProcID(victims[i]))
			times = append(times, at)
			i++
		}
		remaining -= wave
		at *= 2
	}
	return newPlanned(times, procs)
}
