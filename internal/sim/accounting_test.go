package sim

import (
	"errors"
	"strings"
	"testing"
)

// Regression tests for the kernel accounting fixes: out-of-range drop
// tallies, timeout-path timing, the LastSendAt sentinel, and the
// δ-boundary of the invariant checker's schedule-gap rule.

// wildSender addresses targets outside [0, n) alongside a valid one: one
// in-range send and two out-of-range sends per step, for `reps` steps.
type wildSender struct {
	id   ProcID
	n    int
	reps int
}

func (w *wildSender) ID() ProcID { return w.id }
func (w *wildSender) Step(_ Time, _ []Message, out *Outbox) {
	if w.reps <= 0 {
		return
	}
	w.reps--
	out.Send((w.id+1)%ProcID(w.n), "ok")
	out.Send(ProcID(w.n), "high") // dropped: == n
	out.Send(-1, "low")           // dropped: negative
}
func (w *wildSender) Quiescent() bool { return w.reps <= 0 }

func TestOutOfRangeDropsTallied(t *testing.T) {
	const n, reps = 4, 3
	run := func(shards int) Result {
		cfg := Config{N: n, F: 0, D: 1, Delta: 1, Seed: 1, Shards: shards}
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &wildSender{id: ProcID(i), n: n, reps: reps}
		}
		w, err := NewWorld(cfg, nodes, everyStepAdv{delay: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Metrics().OutOfRangeDrops; got != res.OutOfRangeDrops {
			t.Fatalf("shards=%d: Metrics %d != Result %d", shards, got, res.OutOfRangeDrops)
		}
		return res
	}
	want := int64(n * reps * 2)
	serial := run(0)
	if serial.OutOfRangeDrops != want {
		t.Fatalf("OutOfRangeDrops = %d, want %d", serial.OutOfRangeDrops, want)
	}
	// Dropped sends never reach the wire: they must not count as messages.
	if wantMsgs := int64(n * reps); serial.Messages != wantMsgs {
		t.Fatalf("Messages = %d, want %d", serial.Messages, wantMsgs)
	}
	if sharded := run(2); sharded != serial {
		t.Fatalf("sharded run diverged:\n got %+v\nwant %+v", sharded, serial)
	}
}

// oneShotSilent sends a single message at t=0 and then stays busy forever,
// forcing the timeout path with a known LastSendAt.
type oneShotSilent struct {
	id   ProcID
	sent bool
}

func (s *oneShotSilent) ID() ProcID { return s.id }
func (s *oneShotSilent) Step(_ Time, _ []Message, out *Outbox) {
	if !s.sent {
		s.sent = true
		out.Send(1-s.id, "once")
	}
}
func (s *oneShotSilent) Quiescent() bool { return false }

func TestTimeoutResultCarriesTiming(t *testing.T) {
	cfg := Config{N: 2, F: 0, D: 1, Delta: 1, Seed: 1, MaxSteps: 50}
	nodes := []Node{&oneShotSilent{id: 0}, &oneShotSilent{id: 1}}
	w, err := NewWorld(cfg, nodes, everyStepAdv{delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if res.QuiesceAt != cfg.MaxSteps {
		t.Fatalf("QuiesceAt = %d, want %d", res.QuiesceAt, cfg.MaxSteps)
	}
	// The fix under test: a timed-out run must not report zero timing.
	if res.CompletedAt != res.QuiesceAt {
		t.Fatalf("CompletedAt = %d, want QuiesceAt %d", res.CompletedAt, res.QuiesceAt)
	}
	if res.TimeComplexity != res.QuiesceAt {
		t.Fatalf("TimeComplexity = %d, want %d", res.TimeComplexity, res.QuiesceAt)
	}
	if res.LastSendAt != 0 {
		t.Fatalf("LastSendAt = %d, want 0 (the t=0 send)", res.LastSendAt)
	}
}

// mutePair completes immediately without ever sending, pinning the -1
// LastSendAt sentinel: a genuine send at t=0 (TestFloodCompletes) and "no
// sends at all" are now distinguishable.
type mutePair struct{ id ProcID }

func (m *mutePair) ID() ProcID                    { return m.id }
func (m *mutePair) Step(Time, []Message, *Outbox) {}
func (m *mutePair) Quiescent() bool               { return true }

func TestLastSendAtSentinelWhenNoSends(t *testing.T) {
	cfg := Config{N: 2, F: 0, D: 1, Delta: 1, Seed: 1}
	w, err := NewWorld(cfg, []Node{&mutePair{0}, &mutePair{1}}, everyStepAdv{delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 {
		t.Fatalf("Messages = %d, want 0", res.Messages)
	}
	if res.LastSendAt != -1 {
		t.Fatalf("LastSendAt = %d, want -1 sentinel", res.LastSendAt)
	}
	// The sentinel must not drag TimeComplexity negative.
	if res.TimeComplexity < 0 {
		t.Fatalf("TimeComplexity = %d, want >= 0", res.TimeComplexity)
	}
}

// periodicAdv schedules every process at times first, first+period,
// first+2·period, … — the δ-boundary schedules the built-in adversaries
// never produce.
type periodicAdv struct {
	first, period Time
}

func (a periodicAdv) Schedule(tm Time, v View, buf []ProcID) []ProcID {
	if tm < a.first || (tm-a.first)%a.period != 0 {
		return buf
	}
	for p := 0; p < v.N(); p++ {
		buf = append(buf, ProcID(p))
	}
	return buf
}
func (a periodicAdv) Delay(Time, ProcID, ProcID) Time { return 1 }
func (a periodicAdv) Crashes(_ Time, _ View, buf []ProcID) []ProcID {
	return buf
}

// TestDeltaValidationBoundary pins the checker's schedule-gap window on
// both sides, over real kernel runs with maxGap = δ: a first schedule at
// t = δ−1 and a steady period of exactly δ sit inside the bound, while a
// first schedule at t = δ (one whole missed window) and a period of δ+1
// are violations.
func TestDeltaValidationBoundary(t *testing.T) {
	const delta = 3
	cases := []struct {
		name    string
		adv     periodicAdv
		violate bool
	}{
		{"first at delta-1", periodicAdv{first: delta - 1, period: delta}, false},
		{"first at delta", periodicAdv{first: delta, period: delta}, true},
		{"steady period exactly delta", periodicAdv{first: 0, period: delta}, false},
		{"steady period delta+1", periodicAdv{first: 0, period: delta + 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{N: 3, F: 0, D: 1, Delta: delta, Seed: 1, MaxSteps: 6 * delta}
			nodes := make([]Node, cfg.N)
			for i := range nodes {
				nodes[i] = &silentNode{ProcID(i)}
			}
			w, err := NewWorld(cfg, nodes, tc.adv)
			if err != nil {
				t.Fatal(err)
			}
			chk := NewInvariantChecker(cfg.N, cfg.F, cfg.D, delta)
			w.SetTracer(chk)
			// silentNode never quiesces, so every run ends in a timeout.
			if _, err := w.Run(nil); !errors.Is(err, ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
			err = chk.Err()
			if tc.violate && (err == nil || !strings.Contains(err.Error(), RuleScheduleGap)) {
				t.Fatalf("want a %s violation, got %v", RuleScheduleGap, err)
			}
			if !tc.violate && err != nil {
				t.Fatalf("clean schedule flagged: %v", err)
			}
		})
	}
}
