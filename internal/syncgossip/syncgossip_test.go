package syncgossip

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// runSync runs a synchronous protocol under the synchronous adversary
// (d = δ = 1, which these protocols are allowed to assume) with a crash
// plan.
func runSync(t *testing.T, proto core.Protocol, n, f int, seed int64, crashes adversary.CrashPolicy) sim.Result {
	t.Helper()
	cfg := sim.Config{N: n, F: f, D: 1, Delta: 1, Seed: seed}
	p := core.Params{N: n, F: f}
	nodes, err := core.NewNodes(proto, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.Compose(nil, nil, crashes)
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(proto.Evaluator(p))
	if err != nil {
		t.Fatalf("%s n=%d f=%d seed=%d: %v", proto.Name(), n, f, seed, err)
	}
	return res
}

func TestEpidemicCompletesNoFailures(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		res := runSync(t, Epidemic{}, 64, 0, seed, nil)
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestEpidemicCompletesWithCrashes(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		crash := adversary.NewRandomCrashes(64, 21, 10, rng.New(seed+100))
		res := runSync(t, Epidemic{}, 64, 21, seed, crash)
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestEpidemicPolylogComplexity(t *testing.T) {
	// Time O(log n), messages O(n log n): check against generous absolute
	// caps that the trivial protocol (time 2, messages n²) would blow.
	res := runSync(t, Epidemic{}, 256, 0, 3, nil)
	if res.TimeComplexity > 40 { // 3·log₂(256) = 24 rounds + slack
		t.Fatalf("time %d not polylog-ish", res.TimeComplexity)
	}
	if res.Messages >= 256*256/2 {
		t.Fatalf("messages %d not o(n²)", res.Messages)
	}
}

func TestDeterministicCompletes(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		res := runSync(t, Deterministic{}, 64, 0, seed, nil)
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestDeterministicWithCrashes(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		crash := adversary.NewRandomCrashes(128, 31, 5, rng.New(seed+7))
		res := runSync(t, Deterministic{}, 128, 31, seed, crash)
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestDeterministicIsDeterministic(t *testing.T) {
	// Two runs with different node seeds but the same graph seed must
	// produce identical message counts: the protocol uses no process
	// randomness at all.
	r1 := runSync(t, Deterministic{}, 64, 0, 1, nil)
	r2 := runSync(t, Deterministic{}, 64, 0, 999, nil)
	if r1.Messages != r2.Messages || r1.TimeComplexity != r2.TimeComplexity {
		t.Fatalf("deterministic protocol varied with node seed: %+v vs %+v", r1, r2)
	}
}

func TestDeterministicCrashStorm(t *testing.T) {
	// Half the processes die at t=0; the fixed-graph protocol must still
	// gather among survivors within its round budget.
	for seed := int64(0); seed < 3; seed++ {
		crash := adversary.NewCrashStorm(96, 47, 0, rng.New(seed+55))
		res := runSync(t, Deterministic{}, 96, 47, seed, crash)
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range append(core.Names(), Names()...) {
		proto, err := ProtocolByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if proto.Name() != name {
			t.Fatalf("ProtocolByName(%q).Name() = %q", name, proto.Name())
		}
	}
	if _, err := ProtocolByName("bogus"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("bogus: got %v, want an unknown-protocol error", err)
	}
}

func TestSyncBeatsAsyncEARSAtSameScale(t *testing.T) {
	// The premise of Corollary 2: with d=δ=1 a synchronous algorithm is
	// much faster than an asynchronous one that cannot rely on the bound.
	n, f := 128, 31
	crash := adversary.NewRandomCrashes(n, f, 10, rng.New(42))
	rs := runSync(t, Epidemic{}, n, f, 1, crash)

	cfg := sim.Config{N: n, F: f, D: 1, Delta: 1, Seed: 1}
	p := core.Params{N: n, F: f}
	nodes, err := core.NewNodes(core.EARS{}, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.Compose(nil, nil, adversary.NewRandomCrashes(n, f, 10, rng.New(42)))
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := w.Run(core.EARS{}.Evaluator(p))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Messages >= ra.Messages {
		t.Fatalf("sync epidemic messages %d not below async ears %d", rs.Messages, ra.Messages)
	}
}
