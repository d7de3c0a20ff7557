package sim

import "fmt"

// This file provides the tracer-side checking hooks behind the scenario
// fuzzer (internal/scenario): a tee so several tracers can observe one run,
// a streaming digest that fingerprints an event stream, and an online
// invariant checker that re-verifies the kernel's model guarantees from the
// outside. The checker deliberately re-derives its verdicts from raw events
// only — never from World internals — so a kernel regression (a broken
// crash budget, a delay clamp gone missing) is caught by an independent
// witness instead of being self-certified.

// MultiTracer fans events out to several tracers in order. Nil entries are
// skipped, so callers can compose optional observers without branching.
type MultiTracer []Tracer

var _ Tracer = MultiTracer(nil)

// Tee returns a tracer delivering every event to each non-nil tracer in
// ts, in argument order. With zero or one non-nil tracers it collapses to
// nil or that tracer, preserving the kernel's nil-tracer fast path.
func Tee(ts ...Tracer) Tracer {
	var live MultiTracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// OnStep implements Tracer.
func (m MultiTracer) OnStep(p ProcID, t Time) {
	for _, tr := range m {
		tr.OnStep(p, t)
	}
}

// OnSend implements Tracer.
func (m MultiTracer) OnSend(msg Message) {
	for _, tr := range m {
		tr.OnSend(msg)
	}
}

// OnDeliver implements Tracer.
func (m MultiTracer) OnDeliver(msg Message, t Time) {
	for _, tr := range m {
		tr.OnDeliver(msg, t)
	}
}

// OnCrash implements Tracer.
func (m MultiTracer) OnCrash(p ProcID, t Time) {
	for _, tr := range m {
		tr.OnCrash(p, t)
	}
}

// DigestTracer folds every simulation event into one order-sensitive
// 64-bit FNV-1a fingerprint. Two runs with equal digests and equal event
// counts executed the same event stream (up to hash collision); the
// scenario fuzzer uses this to pin pooled ≡ unpooled equivalence and
// replay identity without materializing event logs, and the golden-digest
// regression tests commit the fingerprints per protocol.
//
// The digest covers (kind, time, proc, peer) and, for sends, the assigned
// ReadyAt — so scheduling, routing, crash timing and every delay decision
// are all load-bearing. Payload contents are deliberately excluded:
// payload storage is what pooling recycles, and the contract being checked
// is that recycling never changes behavior, which the event stream
// witnesses.
type DigestTracer struct {
	h      uint64
	events int64
}

var _ Tracer = (*DigestTracer)(nil)

// NewDigestTracer returns an empty digest.
func NewDigestTracer() *DigestTracer {
	return &DigestTracer{h: fnvOffset64}
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvPrimePow[k] is fnvPrime64^k: k FNV-1a rounds over zero bytes, which
// leave the xor step a no-op, are one multiplication by it.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fold mixes one 64-bit word into the running digest, byte by byte
// (FNV-1a), keeping the fingerprint sensitive to byte order and position.
// Once the word's remaining high bytes are all zero, their rounds are
// folded in one multiplication, with the same result.
func (d *DigestTracer) fold(v uint64) {
	h := d.h
	i := 0
	for ; v != 0; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	d.h = h * fnvPrimePow[8-i]
}

func (d *DigestTracer) event(kind EventKind, t Time, proc, peer ProcID, extra Time) {
	d.events++
	d.fold(uint64(kind))
	d.fold(uint64(t))
	d.fold(uint64(uint32(proc))<<32 | uint64(uint32(peer)))
	d.fold(uint64(extra))
}

// OnStep implements Tracer.
func (d *DigestTracer) OnStep(p ProcID, t Time) { d.event(EventStep, t, p, -1, 0) }

// OnSend implements Tracer.
func (d *DigestTracer) OnSend(m Message) { d.event(EventSend, m.SentAt, m.From, m.To, m.ReadyAt) }

// OnDeliver implements Tracer.
func (d *DigestTracer) OnDeliver(m Message, t Time) { d.event(EventDeliver, t, m.To, m.From, m.SentAt) }

// OnCrash implements Tracer.
func (d *DigestTracer) OnCrash(p ProcID, t Time) { d.event(EventCrash, t, p, -1, 0) }

// Sum returns the digest of the events observed so far.
func (d *DigestTracer) Sum() uint64 { return d.h }

// Events returns the number of events folded in.
func (d *DigestTracer) Events() int64 { return d.events }

// Violation is one invariant breach observed by an InvariantChecker.
type Violation struct {
	// Rule names the broken invariant ("crash-budget", "delay-clamp",
	// "post-crash", "schedule-gap", "event-order").
	Rule string
	// Detail describes the offending event.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Checker rule names, shared with the scenario oracle catalog.
const (
	RuleCrashBudget = "crash-budget"
	RuleDelayClamp  = "delay-clamp"
	RulePostCrash   = "post-crash"
	RuleScheduleGap = "schedule-gap"
	RuleEventOrder  = "event-order"
)

// maxCheckerViolations caps recorded violations; a broken kernel would
// otherwise flood memory with millions of identical reports.
const maxCheckerViolations = 64

// InvariantChecker is a Tracer that re-verifies the system model's
// guarantees online, from events alone:
//
//   - crash-budget: at most F processes ever crash, and no process crashes
//     twice (paper §1: up to f < n crash failures).
//   - delay-clamp: every send's assigned delay ReadyAt−SentAt lies in
//     [1, D] (the d bound on message delivery).
//   - post-crash: a crashed process never steps, never sends, and is never
//     delivered a message (crashes are clean halts).
//   - schedule-gap: the gap between consecutive steps of a live process
//     never exceeds MaxGap, and its first step comes by t = MaxGap−1,
//     i.e. within MaxGap steps of time 0 (the relative-speed bound; pass
//     2δ−1 for schedules like Stride that redraw phases per period, δ for
//     strictly periodic ones, or 0 to disable).
//   - event-order: event times never decrease, and a message is delivered
//     no earlier than ReadyAt and strictly after SentAt.
//
// The checker allocates O(N) once and does O(1) work per event, so it can
// ride along on every fuzzing run.
type InvariantChecker struct {
	f      int
	d      Time
	maxGap Time

	crashed   []bool
	lastStep  []Time // -1 before the first step
	crashes   int
	lastTime  Time
	truncated int64 // violations dropped past the cap

	violations []Violation
}

var _ Tracer = (*InvariantChecker)(nil)

// NewInvariantChecker returns a checker for a run of n processes with
// crash budget f, delay bound d and step-gap bound maxGap (0 disables the
// schedule-gap rule).
func NewInvariantChecker(n, f int, d, maxGap Time) *InvariantChecker {
	c := &InvariantChecker{
		f:        f,
		d:        d,
		maxGap:   maxGap,
		crashed:  make([]bool, n),
		lastStep: make([]Time, n),
	}
	for p := range c.lastStep {
		c.lastStep[p] = -1
	}
	return c
}

func (c *InvariantChecker) violatef(rule, format string, args ...any) {
	if len(c.violations) >= maxCheckerViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// in reports whether p is a valid process index for this checker.
func (c *InvariantChecker) in(p ProcID) bool {
	return int(p) >= 0 && int(p) < len(c.crashed)
}

// clock checks global event-time monotonicity.
func (c *InvariantChecker) clock(t Time) {
	if t < c.lastTime {
		c.violatef(RuleEventOrder, "event at t=%d after event at t=%d", t, c.lastTime)
		return
	}
	c.lastTime = t
}

// OnStep implements Tracer.
func (c *InvariantChecker) OnStep(p ProcID, t Time) {
	c.clock(t)
	if !c.in(p) {
		c.violatef(RuleEventOrder, "step by out-of-range process %d", p)
		return
	}
	if c.crashed[p] {
		c.violatef(RulePostCrash, "process %d stepped at t=%d after crashing", p, t)
	}
	if c.maxGap > 0 && t-c.lastStep[p] > c.maxGap {
		c.violatef(RuleScheduleGap, "process %d starved: not stepped in (%d, %d) beyond gap bound %d",
			p, c.lastStep[p], t, c.maxGap)
	}
	c.lastStep[p] = t
}

// OnSend implements Tracer.
func (c *InvariantChecker) OnSend(m Message) {
	c.clock(m.SentAt)
	if !c.in(m.From) || !c.in(m.To) {
		c.violatef(RuleEventOrder, "send %d->%d out of range", m.From, m.To)
		return
	}
	if c.crashed[m.From] {
		c.violatef(RulePostCrash, "process %d sent to %d at t=%d after crashing", m.From, m.To, m.SentAt)
	}
	delay := m.ReadyAt - m.SentAt
	if delay < 1 || delay > c.d {
		c.violatef(RuleDelayClamp, "send %d->%d at t=%d has delay %d outside [1, %d]",
			m.From, m.To, m.SentAt, delay, c.d)
	}
}

// OnDeliver implements Tracer.
func (c *InvariantChecker) OnDeliver(m Message, t Time) {
	c.clock(t)
	if !c.in(m.To) {
		c.violatef(RuleEventOrder, "delivery to out-of-range process %d", m.To)
		return
	}
	if c.crashed[m.To] {
		c.violatef(RulePostCrash, "message %d->%d delivered at t=%d to crashed process", m.From, m.To, t)
	}
	if t < m.ReadyAt {
		c.violatef(RuleEventOrder, "message %d->%d delivered at t=%d before ReadyAt=%d", m.From, m.To, t, m.ReadyAt)
	}
	if t <= m.SentAt {
		c.violatef(RuleEventOrder, "message %d->%d delivered at t=%d, sent at t=%d", m.From, m.To, t, m.SentAt)
	}
}

// OnCrash implements Tracer.
func (c *InvariantChecker) OnCrash(p ProcID, t Time) {
	c.clock(t)
	if !c.in(p) {
		c.violatef(RuleEventOrder, "crash of out-of-range process %d", p)
		return
	}
	if c.crashed[p] {
		c.violatef(RuleEventOrder, "process %d crashed twice (second at t=%d)", p, t)
		return
	}
	c.crashed[p] = true
	c.crashes++
	if c.crashes > c.f {
		c.violatef(RuleCrashBudget, "crash %d of process %d at t=%d exceeds budget f=%d",
			c.crashes, p, t, c.f)
	}
}

// Crashes returns the number of distinct crashes observed.
func (c *InvariantChecker) Crashes() int { return c.crashes }

// Violations returns the recorded invariant breaches, capped at
// maxCheckerViolations; Err reports the full count.
func (c *InvariantChecker) Violations() []Violation { return c.violations }

// Err returns nil when no invariant was violated, or an error summarizing
// the first breach and the total count.
func (c *InvariantChecker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("sim: %d invariant violation(s), first: %s",
		int64(len(c.violations))+c.truncated, c.violations[0])
}
