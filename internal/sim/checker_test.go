package sim

import (
	"strings"
	"testing"
)

// feed is a tiny helper building a clean two-process exchange.
func feedCleanExchange(t Tracer) {
	t.OnStep(0, 0)
	t.OnStep(1, 0)
	t.OnSend(Message{From: 0, To: 1, SentAt: 0, ReadyAt: 1})
	t.OnDeliver(Message{From: 0, To: 1, SentAt: 0, ReadyAt: 1}, 1)
	t.OnStep(1, 1)
}

func TestCheckerCleanRunHasNoViolations(t *testing.T) {
	c := NewInvariantChecker(2, 0, 1, 1)
	feedCleanExchange(c)
	if err := c.Err(); err != nil {
		t.Fatalf("clean exchange flagged: %v", err)
	}
	if c.Crashes() != 0 {
		t.Fatalf("crashes = %d, want 0", c.Crashes())
	}
}

func TestCheckerCrashBudget(t *testing.T) {
	c := NewInvariantChecker(4, 1, 1, 0)
	c.OnCrash(0, 0)
	if err := c.Err(); err != nil {
		t.Fatalf("in-budget crash flagged: %v", err)
	}
	c.OnCrash(1, 2)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RuleCrashBudget) {
		t.Fatalf("over-budget crash not flagged as %s: %v", RuleCrashBudget, err)
	}
}

func TestCheckerDoubleCrash(t *testing.T) {
	c := NewInvariantChecker(4, 3, 1, 0)
	c.OnCrash(2, 0)
	c.OnCrash(2, 1)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RuleEventOrder) {
		t.Fatalf("double crash not flagged: %v", err)
	}
	if c.Crashes() != 1 {
		t.Fatalf("double crash counted twice: %d", c.Crashes())
	}
}

func TestCheckerDelayClamp(t *testing.T) {
	for _, tc := range []struct {
		ready Time
		bad   bool
	}{
		{ready: 1, bad: false}, {ready: 3, bad: false},
		{ready: 0, bad: true}, // delay 0
		{ready: 4, bad: true}, // delay 4 > D=3
	} {
		c := NewInvariantChecker(2, 0, 3, 0)
		c.OnSend(Message{From: 0, To: 1, SentAt: 0, ReadyAt: tc.ready})
		err := c.Err()
		if tc.bad && (err == nil || !strings.Contains(err.Error(), RuleDelayClamp)) {
			t.Errorf("ReadyAt=%d: want %s violation, got %v", tc.ready, RuleDelayClamp, err)
		}
		if !tc.bad && err != nil {
			t.Errorf("ReadyAt=%d: clamped delay flagged: %v", tc.ready, err)
		}
	}
}

func TestCheckerPostCrashActivity(t *testing.T) {
	mk := func() *InvariantChecker {
		c := NewInvariantChecker(3, 2, 2, 0)
		c.OnCrash(1, 1)
		return c
	}
	c := mk()
	c.OnStep(1, 2)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RulePostCrash) {
		t.Fatalf("post-crash step not flagged: %v", err)
	}
	c = mk()
	c.OnSend(Message{From: 1, To: 0, SentAt: 2, ReadyAt: 3})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RulePostCrash) {
		t.Fatalf("post-crash send not flagged: %v", err)
	}
	c = mk()
	c.OnDeliver(Message{From: 0, To: 1, SentAt: 0, ReadyAt: 1}, 2)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RulePostCrash) {
		t.Fatalf("post-crash delivery not flagged: %v", err)
	}
}

func TestCheckerScheduleGap(t *testing.T) {
	c := NewInvariantChecker(2, 0, 1, 3)
	c.OnStep(0, 0)
	c.OnStep(0, 3)
	if err := c.Err(); err != nil {
		t.Fatalf("gap at bound flagged: %v", err)
	}
	c.OnStep(0, 7)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RuleScheduleGap) {
		t.Fatalf("starvation not flagged: %v", err)
	}
	// The first step is bounded too: by t = maxGap−1, within maxGap steps
	// of time 0.
	c = NewInvariantChecker(2, 0, 1, 3)
	c.OnStep(0, 2)
	if err := c.Err(); err != nil {
		t.Fatalf("first step at maxGap-1 flagged: %v", err)
	}
	c.OnStep(1, 3)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RuleScheduleGap) {
		t.Fatalf("first step at maxGap not flagged: %v", err)
	}
	// maxGap = 0 disables the rule entirely.
	c = NewInvariantChecker(2, 0, 1, 0)
	c.OnStep(0, 0)
	c.OnStep(0, 1000)
	if err := c.Err(); err != nil {
		t.Fatalf("disabled gap rule flagged: %v", err)
	}
}

func TestCheckerEventOrder(t *testing.T) {
	c := NewInvariantChecker(2, 0, 5, 0)
	c.OnStep(0, 4)
	c.OnStep(1, 2) // time went backwards
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RuleEventOrder) {
		t.Fatalf("clock regression not flagged: %v", err)
	}
	c = NewInvariantChecker(2, 0, 5, 0)
	c.OnDeliver(Message{From: 0, To: 1, SentAt: 0, ReadyAt: 3}, 2) // before ReadyAt
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), RuleEventOrder) {
		t.Fatalf("early delivery not flagged: %v", err)
	}
}

func TestCheckerViolationCap(t *testing.T) {
	c := NewInvariantChecker(2, 0, 1, 0)
	for i := 0; i < 3*maxCheckerViolations; i++ {
		c.OnSend(Message{From: 0, To: 1, SentAt: Time(i), ReadyAt: Time(i)}) // delay 0 every time
	}
	if got := len(c.Violations()); got != maxCheckerViolations {
		t.Fatalf("violations not capped: %d", got)
	}
	if c.truncated != 2*maxCheckerViolations {
		t.Fatalf("truncated = %d, want %d", c.truncated, 2*maxCheckerViolations)
	}
}

func TestDigestTracerDistinguishesStreams(t *testing.T) {
	a, b, c := NewDigestTracer(), NewDigestTracer(), NewDigestTracer()
	feedCleanExchange(a)
	feedCleanExchange(b)
	if a.Sum() != b.Sum() || a.Events() != b.Events() {
		t.Fatalf("identical streams digest differently: %x vs %x", a.Sum(), b.Sum())
	}
	// Same events, one field different.
	c.OnStep(0, 0)
	c.OnStep(1, 0)
	c.OnSend(Message{From: 0, To: 1, SentAt: 0, ReadyAt: 2})
	c.OnDeliver(Message{From: 0, To: 1, SentAt: 0, ReadyAt: 1}, 1)
	c.OnStep(1, 1)
	if a.Sum() == c.Sum() {
		t.Fatal("digest ignores ReadyAt")
	}
	// Order sensitivity.
	d, e := NewDigestTracer(), NewDigestTracer()
	d.OnStep(0, 0)
	d.OnStep(1, 0)
	e.OnStep(1, 0)
	e.OnStep(0, 0)
	if d.Sum() == e.Sum() {
		t.Fatal("digest is order-insensitive")
	}
}

func TestTeeComposition(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("empty tee is not nil")
	}
	single := NewDigestTracer()
	if got := Tee(nil, single); got != single {
		t.Fatal("single-tracer tee did not collapse")
	}
	a, b := NewDigestTracer(), NewDigestTracer()
	tee := Tee(a, nil, b)
	feedCleanExchange(tee)
	if a.Sum() != b.Sum() || a.Events() != 5 || b.Events() != 5 {
		t.Fatalf("tee did not fan out: %d/%d events", a.Events(), b.Events())
	}
}

// TestCheckerOnRealRun rides an InvariantChecker on a real kernel run and
// expects silence: the kernel's own enforcement satisfies the checker.
func TestCheckerOnRealRun(t *testing.T) {
	cfg := Config{N: 8, F: 2, D: 3, Delta: 2, Seed: 5}
	nodes := make([]Node, cfg.N)
	for i := range nodes {
		nodes[i] = &pingNode{id: ProcID(i), n: cfg.N}
	}
	w, err := NewWorld(cfg, nodes, checkerTestAdv{n: cfg.N, d: cfg.D})
	if err != nil {
		t.Fatal(err)
	}
	chk := NewInvariantChecker(cfg.N, cfg.F, cfg.D, 2*cfg.Delta-1)
	dig := NewDigestTracer()
	w.SetTracer(Tee(chk, dig))
	if _, err := w.Run(nil); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("kernel run violated invariants: %v", err)
	}
	if dig.Events() == 0 {
		t.Fatal("digest saw no events")
	}
	if chk.Crashes() != 2 {
		t.Fatalf("crashes observed = %d, want 2", chk.Crashes())
	}
}

// pingNode sends one message to its successor on its first step.
type pingNode struct {
	id   ProcID
	n    int
	sent bool
}

func (p *pingNode) ID() ProcID { return p.id }

func (p *pingNode) Step(_ Time, _ []Message, out *Outbox) {
	if !p.sent {
		p.sent = true
		out.Send(ProcID((int(p.id)+1)%p.n), nil)
	}
}

func (p *pingNode) Quiescent() bool { return p.sent }

// checkerTestAdv schedules everyone, uses max delay, crashes 0 and 1 early.
type checkerTestAdv struct {
	n int
	d Time
}

func (a checkerTestAdv) Schedule(_ Time, _ View, buf []ProcID) []ProcID {
	for p := 0; p < a.n; p++ {
		buf = append(buf, ProcID(p))
	}
	return buf
}

func (a checkerTestAdv) Delay(Time, ProcID, ProcID) Time { return a.d }

func (a checkerTestAdv) Crashes(t Time, _ View, buf []ProcID) []ProcID {
	if t == 1 {
		buf = append(buf, 0, 1)
	}
	return buf
}
