package adversary

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fakeView is a minimal sim.View for schedule/crash tests.
type fakeView struct {
	n     int
	now   sim.Time
	alive []bool
}

func newFakeView(n int) *fakeView {
	v := &fakeView{n: n, alive: make([]bool, n)}
	for i := range v.alive {
		v.alive[i] = true
	}
	return v
}

func (v *fakeView) N() int                  { return v.n }
func (v *fakeView) Now() sim.Time           { return v.now }
func (v *fakeView) Alive(p sim.ProcID) bool { return v.alive[p] }
func (v *fakeView) AliveCount() int {
	c := 0
	for _, a := range v.alive {
		if a {
			c++
		}
	}
	return c
}
func (v *fakeView) Node(p sim.ProcID) sim.Node    { return nil }
func (v *fakeView) MessagesSent() int64           { return 0 }
func (v *fakeView) StepsTaken(p sim.ProcID) int64 { return 0 }
func (v *fakeView) Graph() topology.Graph         { return nil }

func TestEveryStepSchedulesAll(t *testing.T) {
	v := newFakeView(7)
	got := EveryStep{}.Append(3, v, nil)
	if len(got) != 7 {
		t.Fatalf("scheduled %d, want 7", len(got))
	}
}

func TestStrideRespectsDeltaBound(t *testing.T) {
	const n, delta, horizon = 20, 5, 500
	v := newFakeView(n)
	s := NewStride(n, delta, rng.New(3))
	last := make([]sim.Time, n)
	for i := range last {
		last[i] = -1
	}
	var buf []sim.ProcID
	for tm := sim.Time(0); tm < horizon; tm++ {
		buf = s.Append(tm, v, buf[:0])
		for _, p := range buf {
			gap := tm - last[p]
			// Scheduled at least once in any window of 2δ... the bound we
			// promise is: within each aligned δ-period each process is
			// scheduled exactly once, so consecutive schedulings are < 2δ
			// apart.
			if last[p] >= 0 && gap > 2*delta-1 {
				t.Fatalf("process %d starved for %d steps (δ=%d)", p, gap, delta)
			}
			last[p] = tm
		}
	}
	// Every process scheduled exactly horizon/delta times.
	counts := make([]int, n)
	s2 := NewStride(n, delta, rng.New(3))
	for tm := sim.Time(0); tm < horizon; tm++ {
		for _, p := range s2.Append(tm, v, nil) {
			counts[p]++
		}
	}
	for p, c := range counts {
		if c != horizon/delta {
			t.Fatalf("process %d scheduled %d times, want %d", p, c, horizon/delta)
		}
	}
}

func TestStrideDeltaOneIsSynchronous(t *testing.T) {
	v := newFakeView(5)
	s := NewStride(5, 1, rng.New(1))
	for tm := sim.Time(0); tm < 10; tm++ {
		if got := s.Append(tm, v, nil); len(got) != 5 {
			t.Fatalf("t=%d scheduled %d, want 5", tm, len(got))
		}
	}
}

func TestFixedStridePartition(t *testing.T) {
	v := newFakeView(10)
	s := NewFixedStride(10, 3)
	seen := make(map[sim.ProcID]sim.Time)
	for tm := sim.Time(0); tm < 3; tm++ {
		for _, p := range s.Append(tm, v, nil) {
			if prev, dup := seen[p]; dup {
				t.Fatalf("process %d scheduled twice in one period (at %d and %d)", p, prev, tm)
			}
			seen[p] = tm
		}
	}
	if len(seen) != 10 {
		t.Fatalf("only %d processes scheduled in one period", len(seen))
	}
}

func TestFixedDelay(t *testing.T) {
	if d := FixedDelay(4).Delay(0, 1, 2); d != 4 {
		t.Fatalf("FixedDelay = %d", d)
	}
}

func TestUniformDelayRange(t *testing.T) {
	u := NewUniformDelay(6, rng.New(9))
	seen := map[sim.Time]bool{}
	for i := 0; i < 10000; i++ {
		d := u.Delay(0, 0, 1)
		if d < 1 || d > 6 {
			t.Fatalf("delay %d out of [1,6]", d)
		}
		seen[d] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d distinct delays observed", len(seen))
	}
}

func TestPairwiseDelayStable(t *testing.T) {
	p := NewPairwiseDelay(5, 9, rng.New(2))
	d1 := p.Delay(0, 1, 2)
	d2 := p.Delay(100, 1, 2)
	if d1 != d2 {
		t.Fatal("pairwise delay not stable over time")
	}
	if d := p.Delay(0, 99, 2); d != 1 {
		t.Fatalf("out-of-range pair delay = %d, want 1", d)
	}
}

func TestRandomCrashesBudgetAndWindow(t *testing.T) {
	v := newFakeView(20)
	c := NewRandomCrashes(20, 5, 10, rng.New(4))
	var all []sim.ProcID
	for tm := sim.Time(0); tm <= 10; tm++ {
		all = c.Append(tm, v, all)
	}
	if len(all) != 5 {
		t.Fatalf("crashed %d, want 5", len(all))
	}
	seen := map[sim.ProcID]bool{}
	for _, p := range all {
		if seen[p] {
			t.Fatalf("process %d crashed twice", p)
		}
		seen[p] = true
	}
	// After the window nothing more crashes.
	if more := c.Append(100, v, nil); len(more) != 0 {
		t.Fatalf("crashes after window: %v", more)
	}
}

func TestCrashStormAllAtOnce(t *testing.T) {
	v := newFakeView(10)
	c := NewCrashStorm(10, 4, 3, rng.New(5))
	if got := c.Append(2, v, nil); len(got) != 0 {
		t.Fatalf("crashes before t0: %v", got)
	}
	if got := c.Append(3, v, nil); len(got) != 4 {
		t.Fatalf("crashes at t0 = %d, want 4", len(got))
	}
}

func TestStaggeredCrashesWaves(t *testing.T) {
	v := newFakeView(100)
	c := NewStaggeredCrashes(100, 16, 2, rng.New(6))
	total := 0
	for tm := sim.Time(0); tm < 1000; tm++ {
		total += len(c.Append(tm, v, nil))
	}
	if total != 16 {
		t.Fatalf("staggered crashed %d, want 16", total)
	}
}

func TestNoCrashesForZeroBudget(t *testing.T) {
	if _, ok := NewRandomCrashes(10, 0, 5, rng.New(1)).(NoCrashes); !ok {
		t.Fatal("zero budget should return NoCrashes")
	}
	if _, ok := NewCrashStorm(10, 0, 5, rng.New(1)).(NoCrashes); !ok {
		t.Fatal("zero budget storm should return NoCrashes")
	}
}

func TestComposeDefaultsAndByName(t *testing.T) {
	cfg := sim.Config{N: 8, F: 2, D: 3, Delta: 2, Seed: 1}
	for _, name := range Presets() {
		adv, err := ByName(name, cfg)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if adv == nil {
			t.Fatalf("preset %s returned nil", name)
		}
	}
	if _, err := ByName("nope", cfg); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// Default (empty) name maps to standard.
	if _, err := ByName("", cfg); err != nil {
		t.Fatal(err)
	}
	// Benign defaults: all processes, delay 1, no crashes.
	b := Benign()
	v := newFakeView(4)
	if got := b.Schedule(0, v, nil); len(got) != 4 {
		t.Fatalf("benign scheduled %d", len(got))
	}
	if d := b.Delay(0, 0, 1); d != 1 {
		t.Fatalf("benign delay %d", d)
	}
	if got := b.Crashes(0, v, nil); len(got) != 0 {
		t.Fatalf("benign crashes %v", got)
	}
}

// Obliviousness regression: two adversaries built with the same seed must
// make identical decisions regardless of what the protocol does (modeled
// here by querying in different interleavings).
func TestStandardAdversaryIsPreCommitted(t *testing.T) {
	cfg := sim.Config{N: 16, F: 4, D: 4, Delta: 3, Seed: 42}
	v := newFakeView(16)

	a1, _ := ByName(PresetStandard, cfg)
	a2, _ := ByName(PresetStandard, cfg)

	// Same schedule streams.
	for tm := sim.Time(0); tm < 60; tm++ {
		s1 := a1.Schedule(tm, v, nil)
		s2 := a2.Schedule(tm, v, nil)
		if len(s1) != len(s2) {
			t.Fatalf("t=%d: schedules diverge", tm)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("t=%d: schedules diverge at %d", tm, i)
			}
		}
		c1 := a1.Crashes(tm, v, nil)
		c2 := a2.Crashes(tm, v, nil)
		if len(c1) != len(c2) {
			t.Fatalf("t=%d: crash plans diverge", tm)
		}
	}
}

func TestPartitionDelayHealing(t *testing.T) {
	p := NewPartitionDelay(10, 7, 100)
	// Cross-half before heal: slow.
	if d := p.Delay(50, 1, 8); d != 7 {
		t.Fatalf("cross-half delay = %d, want 7", d)
	}
	// Intra-half before heal: fast.
	if d := p.Delay(50, 1, 3); d != 1 {
		t.Fatalf("intra-half delay = %d, want 1", d)
	}
	if d := p.Delay(50, 8, 9); d != 1 {
		t.Fatalf("intra-half (upper) delay = %d, want 1", d)
	}
	// After heal: everything fast.
	if d := p.Delay(100, 1, 8); d != 1 {
		t.Fatalf("post-heal delay = %d, want 1", d)
	}
}
