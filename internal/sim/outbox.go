package sim

// Outbox collects the messages a node emits during one local step. It is
// owned and recycled by the world; nodes must not retain it across steps.
type Outbox struct {
	from ProcID
	now  Time
	n    int
	msgs []Message
	// oorDrops counts sends this step whose target was outside [0, n).
	// The world folds it into Metrics.OutOfRangeDrops after each step so
	// dropped sends leave a trace, mirroring the off-edge tally.
	oorDrops int64
}

// NewOutbox returns a standalone outbox for harnesses that drive nodes
// directly instead of through a World (the Theorem 1 lower-bound adversary
// simulates and branches executions by hand).
func NewOutbox(from ProcID, now Time, n int) *Outbox {
	o := &Outbox{}
	o.reset(from, now, n)
	return o
}

// Reset prepares the outbox for a new step of process from at time now in
// a system of n processes, discarding prior messages.
func (o *Outbox) Reset(from ProcID, now Time, n int) { o.reset(from, now, n) }

// Messages returns the messages collected this step. The slice is owned by
// the outbox and invalidated by the next Reset. A node may rewrite the
// payloads of messages it queued in the current Step, before it returns.
func (o *Outbox) Messages() []Message { return o.msgs }

// reset prepares the outbox for a new step of process p.
func (o *Outbox) reset(from ProcID, now Time, n int) {
	o.from = from
	o.now = now
	o.n = n
	o.msgs = o.msgs[:0]
	o.oorDrops = 0
}

// OutOfRangeDrops returns the number of sends dropped this step because the
// target was outside [0, n). Standalone harnesses (NewOutbox) can read it
// directly; worlds fold it into Metrics.OutOfRangeDrops.
func (o *Outbox) OutOfRangeDrops() int64 { return o.oorDrops }

// Send enqueues a point-to-point message to the given process. Sends to
// out-of-range targets are dropped and tallied in OutOfRangeDrops.
// Self-sends are permitted (the paper's protocols pick targets uniformly
// from [n], which includes the sender) and are counted as messages,
// delivered like any other.
func (o *Outbox) Send(to ProcID, payload Payload) {
	if int(to) < 0 || int(to) >= o.n {
		o.oorDrops++
		return
	}
	o.msgs = append(o.msgs, Message{
		From:    o.from,
		To:      to,
		SentAt:  o.now,
		Payload: payload,
	})
}

// SendAll sends the same payload to every target in targets.
func (o *Outbox) SendAll(targets []ProcID, payload Payload) {
	for _, t := range targets {
		o.Send(t, payload)
	}
}

// Len returns the number of messages queued this step.
func (o *Outbox) Len() int { return len(o.msgs) }
