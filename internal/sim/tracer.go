package sim

// Tracer observes simulation events. Implementations must not mutate the
// world. A nil tracer is the fast path: the kernel skips all callbacks.
type Tracer interface {
	// OnStep fires after process p completes a local step at time t, after
	// all OnSend events of that step.
	OnStep(p ProcID, t Time)
	// OnSend fires for every message send, with ReadyAt already assigned.
	OnSend(m Message)
	// OnDeliver fires when a message is delivered to its target at time t.
	OnDeliver(m Message, t Time)
	// OnCrash fires when process p crashes at time t.
	OnCrash(p ProcID, t Time)
}

// NopTracer is a Tracer that ignores all events; useful for embedding.
type NopTracer struct{}

var _ Tracer = NopTracer{}

// OnStep implements Tracer.
func (NopTracer) OnStep(ProcID, Time) {}

// OnSend implements Tracer.
func (NopTracer) OnSend(Message) {}

// OnDeliver implements Tracer.
func (NopTracer) OnDeliver(Message, Time) {}

// OnCrash implements Tracer.
func (NopTracer) OnCrash(ProcID, Time) {}

// EventKind labels the events DigestTracer folds into its digest.
type EventKind uint8

// Event kinds, one per Tracer callback.
const (
	EventStep EventKind = iota + 1
	EventSend
	EventDeliver
	EventCrash
)
