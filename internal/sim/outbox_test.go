package sim

import "testing"

func TestOutboxSendAndReset(t *testing.T) {
	o := NewOutbox(3, 7, 10)
	o.Send(4, "hello")
	o.Send(5, "world")
	msgs := o.Messages()
	if len(msgs) != 2 {
		t.Fatalf("len = %d", len(msgs))
	}
	if msgs[0].From != 3 || msgs[0].To != 4 || msgs[0].SentAt != 7 {
		t.Fatalf("bad message: %+v", msgs[0])
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d", o.Len())
	}
	o.Reset(1, 9, 10)
	if o.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	o.Send(2, "x")
	if m := o.Messages()[0]; m.From != 1 || m.SentAt != 9 {
		t.Fatalf("post-reset message: %+v", m)
	}
}

func TestOutboxDropsOutOfRange(t *testing.T) {
	o := NewOutbox(0, 0, 4)
	o.Send(-1, "a")
	o.Send(4, "b")
	o.Send(100, "c")
	if o.Len() != 0 {
		t.Fatalf("out-of-range sends kept: %d", o.Len())
	}
	o.Send(0, "self") // self-sends are allowed (uniform target on [n])
	if o.Len() != 1 {
		t.Fatal("self-send dropped")
	}
}

func TestOutboxSendAll(t *testing.T) {
	o := NewOutbox(1, 2, 8)
	o.SendAll([]ProcID{0, 3, 7, 9}, "bcast") // 9 out of range
	if o.Len() != 3 {
		t.Fatalf("SendAll kept %d", o.Len())
	}
	for _, m := range o.Messages() {
		if m.Payload != "bcast" {
			t.Fatal("payload mismatch")
		}
	}
}

func TestMetricsAggregates(t *testing.T) {
	m := newMetrics(3)
	m.Steps[0] = 5
	m.Steps[1] = 7
	m.Steps[2] = 1
	if got := m.TotalSteps(); got != 13 {
		t.Fatalf("TotalSteps = %d", got)
	}
}

func TestNopTracerIsComplete(t *testing.T) {
	var tr Tracer = NopTracer{}
	tr.OnStep(0, 0)
	tr.OnSend(Message{})
	tr.OnDeliver(Message{}, 0)
	tr.OnCrash(0, 0)
}

// sizedPayload exercises byte accounting.
type sizedPayload int

func (s sizedPayload) SizeBytes() int { return int(s) }

func TestByteAccounting(t *testing.T) {
	cfg := Config{N: 2, F: 0, D: 1, Delta: 1, Seed: 1}
	n0 := &payloadNode{id: 0, size: 100}
	n1 := &payloadNode{id: 1, size: 28}
	w, err := NewWorld(cfg, []Node{n0, n1}, everyStepAdv{delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 128 {
		t.Fatalf("Bytes = %d, want 128", res.Bytes)
	}
}

type payloadNode struct {
	id   ProcID
	size int
	sent bool
}

func (p *payloadNode) ID() ProcID { return p.id }
func (p *payloadNode) Step(_ Time, _ []Message, out *Outbox) {
	if !p.sent {
		p.sent = true
		out.Send(1-p.id, sizedPayload(p.size))
	}
}
func (p *payloadNode) Quiescent() bool { return p.sent }
