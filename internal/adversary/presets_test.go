package adversary

import (
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// These tests pin the preset registry surface (ByName/Presets error paths)
// and the composition invariants every preset must satisfy: schedules
// respect the relative-speed bound, delay policies stay within [1, d]
// before the kernel clamp, crash policies respect the budget f, and
// ObserveSend reaches every component that wants it.

func TestPresetsMatchByName(t *testing.T) {
	cfg := sim.Config{N: 12, F: 3, D: 2, Delta: 2, Seed: 9}
	names := Presets()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("preset %q listed twice", name)
		}
		seen[name] = true
		if _, err := ByName(name, cfg); err != nil {
			t.Fatalf("listed preset %q rejected: %v", name, err)
		}
	}
	for _, want := range []string{
		PresetBenign, PresetStandard, PresetCrashStorm,
		PresetMaxDelay, PresetStaggered, PresetPartition,
	} {
		if !seen[want] {
			t.Fatalf("preset constant %q missing from Presets()", want)
		}
	}
}

func TestByNameUnknownErrorListsPresets(t *testing.T) {
	cfg := sim.Config{N: 4, F: 0, D: 1, Delta: 1}
	_, err := ByName("chaos-monkey", cfg)
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "chaos-monkey") {
		t.Fatalf("error does not name the bad preset: %q", msg)
	}
	for _, name := range Presets() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list preset %q: %q", name, msg)
		}
	}
}

// TestPresetCompositionInvariants runs every preset through a real kernel
// execution with the invariant checker riding along: the composed schedule
// must keep every live process within the 2δ−1 step-gap bound, assigned
// delays must land in [1, d], and crashes must stay within f.
func TestPresetCompositionInvariants(t *testing.T) {
	for _, name := range Presets() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := sim.Config{N: 24, F: 6, D: 3, Delta: 3, Seed: 77, MaxSteps: 400}
			adv, err := ByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]sim.Node, cfg.N)
			for i := range nodes {
				nodes[i] = &chattyNode{id: sim.ProcID(i), n: cfg.N, budget: 40}
			}
			w, err := sim.NewWorld(cfg, nodes, adv)
			if err != nil {
				t.Fatal(err)
			}
			chk := sim.NewInvariantChecker(cfg.N, cfg.F, cfg.D, 2*cfg.Delta-1)
			w.SetTracer(chk)
			if _, err := w.Run(nil); err != nil {
				t.Fatal(err)
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("preset %s violated composition invariants: %v", name, err)
			}
			switch name {
			case PresetBenign, PresetPartition:
				if chk.Crashes() != 0 {
					t.Fatalf("crash-free preset crashed %d", chk.Crashes())
				}
			case PresetCrashStorm:
				if chk.Crashes() != cfg.F {
					t.Fatalf("crashstorm crashed %d, want the full budget %d", chk.Crashes(), cfg.F)
				}
			}
		})
	}
}

// chattyNode sends one message per step to a rotating target for a fixed
// budget, keeping the world busy long enough to exercise the policies.
type chattyNode struct {
	id     sim.ProcID
	n      int
	step   int
	budget int
}

func (c *chattyNode) ID() sim.ProcID { return c.id }

func (c *chattyNode) Step(_ sim.Time, _ []sim.Message, out *sim.Outbox) {
	if c.step >= c.budget {
		return
	}
	c.step++
	out.Send(sim.ProcID((int(c.id)+c.step)%c.n), nil)
}

func (c *chattyNode) Quiescent() bool { return c.step >= c.budget }

// TestComposedObserveSendForwarding: Compose forwards send observations to
// every component implementing sim.SendObserver.
func TestComposedObserveSendForwarding(t *testing.T) {
	sched := &observingSchedule{}
	crash := &crashSenders{}
	adv := Compose(sched, nil, crash)
	m := sim.Message{From: 3, To: 5, SentAt: 2, ReadyAt: 4}
	adv.ObserveSend(m)
	if sched.seen != 1 {
		t.Fatalf("schedule observer saw %d sends, want 1", sched.seen)
	}
	got := adv.Crashes(3, nil, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("adaptive crash policy did not observe the send: %v", got)
	}
}

type observingSchedule struct {
	EveryStep
	seen int
}

func (o *observingSchedule) ObserveSend(sim.Message) { o.seen++ }

// crashSenders is an adaptive crash policy: it crashes every process it has
// seen send, at the next step.
type crashSenders struct{ pending []sim.ProcID }

func (c *crashSenders) ObserveSend(m sim.Message) { c.pending = append(c.pending, m.From) }

func (c *crashSenders) Append(_ sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	buf = append(buf, c.pending...)
	c.pending = c.pending[:0]
	return buf
}

func TestSkewedStrideRespectsDelta(t *testing.T) {
	const n, delta = 16, 4
	s := NewSkewedStride(n, delta, 0.5, rng.New(3))
	last := make([]sim.Time, n)
	for p := range last {
		last[p] = -1
	}
	scheduledCount := make([]int, n)
	const horizon = 40 * delta
	for tm := sim.Time(0); tm < horizon; tm++ {
		for _, p := range s.Append(tm, nil, nil) {
			if last[p] >= 0 {
				if gap := tm - last[p]; gap > delta {
					t.Fatalf("process %d starved for %d > δ=%d steps", p, gap, delta)
				}
			}
			last[p] = tm
			scheduledCount[p]++
		}
	}
	// The skew is real: slow processes step exactly horizon/δ times, fast
	// ones every step, and both classes are non-empty at slowFrac = 0.5.
	slow, fast := 0, 0
	for p, c := range scheduledCount {
		switch c {
		case horizon / delta:
			slow++
		case horizon:
			fast++
		default:
			t.Fatalf("process %d scheduled %d times, want %d (slow) or %d (fast)",
				p, c, horizon/delta, horizon)
		}
	}
	if slow != n/2 || fast != n/2 {
		t.Fatalf("slow/fast split = %d/%d, want %d/%d", slow, fast, n/2, n/2)
	}
}

func TestSkewedStrideDegenerateCases(t *testing.T) {
	// δ = 1 schedules everyone every step regardless of slowFrac.
	s := NewSkewedStride(6, 1, 1.0, rng.New(1))
	if got := s.Append(0, nil, nil); len(got) != 6 {
		t.Fatalf("δ=1 scheduled %d of 6", len(got))
	}
	// slowFrac clamps: negative behaves like 0, >1 like 1.
	s = NewSkewedStride(6, 2, -3, rng.New(1))
	if got := s.Append(1, nil, nil); len(got) != 6 {
		t.Fatalf("slowFrac<0 scheduled %d of 6", len(got))
	}
	s = NewSkewedStride(6, 2, 9, rng.New(1))
	a := len(s.Append(0, nil, nil))
	b := len(s.Append(1, nil, nil))
	if a+b != 6 {
		t.Fatalf("slowFrac=1 with δ=2: %d+%d processes over a period, want 6", a, b)
	}
	// Deterministic in the stream.
	x := NewSkewedStride(10, 3, 0.4, rng.New(7))
	y := NewSkewedStride(10, 3, 0.4, rng.New(7))
	for tm := sim.Time(0); tm < 9; tm++ {
		xs := x.Append(tm, nil, nil)
		ys := y.Append(tm, nil, nil)
		if len(xs) != len(ys) {
			t.Fatalf("t=%d: skewed schedules diverge", tm)
		}
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("t=%d: skewed schedules diverge at %d", tm, i)
			}
		}
	}
}
