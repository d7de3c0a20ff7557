package sim

import (
	"errors"
	"testing"
)

// floodNode sends one message to every other process in its first step,
// then goes quiescent. It records every rumor (sender ID) it hears.
type floodNode struct {
	id    ProcID
	n     int
	sent  bool
	heard map[ProcID]Time // sender -> delivery time
}

func newFloodNode(id ProcID, n int) *floodNode {
	return &floodNode{id: id, n: n, heard: map[ProcID]Time{}}
}

func (f *floodNode) ID() ProcID { return f.id }

func (f *floodNode) Step(now Time, inbox []Message, out *Outbox) {
	for _, m := range inbox {
		if _, ok := f.heard[m.From]; !ok {
			f.heard[m.From] = now
		}
	}
	if !f.sent {
		f.sent = true
		for q := 0; q < f.n; q++ {
			if ProcID(q) != f.id {
				out.Send(ProcID(q), "rumor")
			}
		}
	}
}

func (f *floodNode) Quiescent() bool { return f.sent }

// everyStepAdv is a minimal synchronous adversary.
type everyStepAdv struct{ delay Time }

func (a everyStepAdv) Schedule(_ Time, v View, buf []ProcID) []ProcID {
	for p := 0; p < v.N(); p++ {
		buf = append(buf, ProcID(p))
	}
	return buf
}
func (a everyStepAdv) Delay(Time, ProcID, ProcID) Time { return a.delay }
func (a everyStepAdv) Crashes(_ Time, _ View, buf []ProcID) []ProcID {
	return buf
}

func mkFloodWorld(t *testing.T, cfg Config, adv Adversary) (*World, []*floodNode) {
	t.Helper()
	nodes := make([]Node, cfg.N)
	fns := make([]*floodNode, cfg.N)
	for i := range nodes {
		fn := newFloodNode(ProcID(i), cfg.N)
		nodes[i] = fn
		fns[i] = fn
	}
	w, err := NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	return w, fns
}

func TestFloodCompletes(t *testing.T) {
	cfg := Config{N: 10, F: 0, D: 1, Delta: 1, Seed: 1}
	w, fns := mkFloodWorld(t, cfg, everyStepAdv{delay: 1})
	res, err := w.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TimedOut {
		t.Fatalf("flood did not complete: %+v", res)
	}
	// n*(n-1) messages.
	if want := int64(10 * 9); res.Messages != want {
		t.Fatalf("Messages = %d, want %d", res.Messages, want)
	}
	// Everyone heard everyone.
	for _, fn := range fns {
		if len(fn.heard) != 9 {
			t.Fatalf("node %d heard %d rumors, want 9", fn.id, len(fn.heard))
		}
	}
	// All sends happen at t=0; deliveries at t=1; quiet detection then.
	if res.LastSendAt != 0 {
		t.Fatalf("LastSendAt = %d, want 0", res.LastSendAt)
	}
	if res.QuiesceAt != 1 {
		t.Fatalf("QuiesceAt = %d, want 1", res.QuiesceAt)
	}
}

func TestDelayBoundRespected(t *testing.T) {
	cfg := Config{N: 6, F: 0, D: 5, Delta: 1, Seed: 1}
	w, fns := mkFloodWorld(t, cfg, everyStepAdv{delay: 99}) // kernel must clamp to D
	res, err := w.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range fns {
		for from, at := range fn.heard {
			if at != 5 {
				t.Fatalf("node %d got rumor from %d at %d, want 5 (clamped to D)", fn.id, from, at)
			}
		}
	}
	_ = res
}

func TestCrashBudgetEnforced(t *testing.T) {
	cfg := Config{N: 8, F: 2, D: 1, Delta: 1, Seed: 1}
	adv := &crashHungryAdv{}
	w, _ := mkFloodWorld(t, cfg, adv)
	res, err := w.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Fatalf("Crashes = %d, want 2 (budget F)", res.Crashes)
	}
	if w.AliveCount() != 6 {
		t.Fatalf("AliveCount = %d, want 6", w.AliveCount())
	}
}

// crashHungryAdv tries to crash everything every step; the kernel must cap
// at F.
type crashHungryAdv struct{ everyStepAdv }

func (a *crashHungryAdv) Crashes(_ Time, v View, buf []ProcID) []ProcID {
	for p := 0; p < v.N(); p++ {
		buf = append(buf, ProcID(p))
	}
	return buf
}

func (a *crashHungryAdv) Delay(Time, ProcID, ProcID) Time { return 1 }

func TestCrashedProcessesTakeNoSteps(t *testing.T) {
	cfg := Config{N: 4, F: 1, D: 1, Delta: 1, Seed: 1}
	// Crash process 0 at t=0, before it ever steps.
	adv := &plannedCrashAdv{victim: 0}
	w, fns := mkFloodWorld(t, cfg, adv)
	res, err := w.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Metrics().Steps[0] != 0 {
		t.Fatalf("crashed process took %d steps", w.Metrics().Steps[0])
	}
	// Its rumor must not appear anywhere.
	for _, fn := range fns[1:] {
		if _, ok := fn.heard[0]; ok {
			t.Fatal("heard rumor from process crashed before its first step")
		}
	}
	// 3 live processes each send 3 messages (incl. to the dead one).
	if want := int64(9); res.Messages != want {
		t.Fatalf("Messages = %d, want %d", res.Messages, want)
	}
}

type plannedCrashAdv struct {
	everyStepAdv
	victim ProcID
	done   bool
}

func (a *plannedCrashAdv) Crashes(tm Time, _ View, buf []ProcID) []ProcID {
	if tm == 0 && !a.done {
		a.done = true
		buf = append(buf, a.victim)
	}
	return buf
}
func (a *plannedCrashAdv) Delay(Time, ProcID, ProcID) Time { return 1 }

// silentNode never sends and is never quiescent: the world must time out.
type silentNode struct{ id ProcID }

func (s *silentNode) ID() ProcID                    { return s.id }
func (s *silentNode) Step(Time, []Message, *Outbox) {}
func (s *silentNode) Quiescent() bool               { return false }

func TestTimeout(t *testing.T) {
	cfg := Config{N: 2, F: 0, D: 1, Delta: 1, Seed: 1, MaxSteps: 50}
	nodes := []Node{&silentNode{0}, &silentNode{1}}
	w, err := NewWorld(cfg, nodes, everyStepAdv{delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set")
	}
}

// rejectingEvaluator always rejects.
type rejectingEvaluator struct{}

func (rejectingEvaluator) Evaluate(View) Outcome {
	return Outcome{OK: false, Detail: "nope"}
}

func TestEvaluatorRejection(t *testing.T) {
	cfg := Config{N: 3, F: 0, D: 1, Delta: 1, Seed: 1}
	w, _ := mkFloodWorld(t, cfg, everyStepAdv{delay: 1})
	res, err := w.Run(rejectingEvaluator{})
	if err == nil {
		t.Fatal("expected evaluator rejection error")
	}
	if res.Completed {
		t.Fatal("Completed should be false")
	}
	if res.Detail != "nope" {
		t.Fatalf("Detail = %q", res.Detail)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 0, F: 0, D: 1, Delta: 1},
		{N: 4, F: 4, D: 1, Delta: 1},
		{N: 4, F: -1, D: 1, Delta: 1},
		{N: 4, F: 0, D: 0, Delta: 1},
		{N: 4, F: 0, D: 1, Delta: 0},
		{N: 4, F: 0, D: 1, Delta: 1, MaxSteps: -5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation: %+v", i, c)
		}
	}
	good := Config{N: 4, F: 3, D: 10, Delta: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewWorldRejectsBadNodes(t *testing.T) {
	cfg := Config{N: 2, F: 0, D: 1, Delta: 1}
	if _, err := NewWorld(cfg, []Node{&silentNode{0}}, everyStepAdv{}); err == nil {
		t.Fatal("wrong node count accepted")
	}
	if _, err := NewWorld(cfg, []Node{&silentNode{0}, &silentNode{0}}, everyStepAdv{}); err == nil {
		t.Fatal("mismatched node ID accepted")
	}
	if _, err := NewWorld(cfg, []Node{&silentNode{0}, nil}, everyStepAdv{}); err == nil {
		t.Fatal("nil node accepted")
	}
	if _, err := NewWorld(cfg, []Node{&silentNode{0}, &silentNode{1}}, nil); err == nil {
		t.Fatal("nil adversary accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Result, []int64) {
		cfg := Config{N: 16, F: 0, D: 3, Delta: 2, Seed: 7}
		w, _ := mkFloodWorld(t, cfg, everyStepAdv{delay: 2})
		res, err := w.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		sent := make([]int64, len(w.Metrics().SentBy))
		copy(sent, w.Metrics().SentBy)
		return res, sent
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 {
		t.Fatalf("replay diverged: %+v vs %+v", r1, r2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("per-process sends diverged at %d", i)
		}
	}
}

func TestDefaultMaxStepsScales(t *testing.T) {
	small := DefaultMaxSteps(Config{N: 8, F: 0, D: 1, Delta: 1})
	big := DefaultMaxSteps(Config{N: 1024, F: 512, D: 8, Delta: 8})
	if small < 4096 {
		t.Fatalf("small budget %d below floor", small)
	}
	if big <= small {
		t.Fatalf("budget did not scale: small %d, big %d", small, big)
	}
}
