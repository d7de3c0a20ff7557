package lowerbound

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// lazyProto is a synthetic message-frugal protocol used to exercise Case 2
// of the Theorem 1 strategy: each process sends a single message to one
// random target in its first local step and then stays silent. It is a
// (hopeless) gossip attempt whose processes are all non-promiscuous — the
// adversary must catch it with the isolation pair, not the message count.
type lazyProto struct{}

func (lazyProto) Name() string { return "lazy" }

func (lazyProto) NewNode(id sim.ProcID, p core.Params, r *rng.RNG) sim.Node {
	return &lazyNode{
		Tracker: core.Params{N: p.N}.NewTracker(id, core.NoValue),
		id:      id,
		n:       p.N,
		r:       r,
	}
}

func (lazyProto) Evaluator(p core.Params) sim.Evaluator {
	return core.FullGossipEvaluator{Params: p.WithDefaults()}
}

type lazyNode struct {
	core.Tracker
	id   sim.ProcID
	n    int
	sent bool
	r    *rng.RNG
}

func (l *lazyNode) ID() sim.ProcID { return l.id }

func (l *lazyNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	for _, m := range inbox {
		if pl, ok := m.Payload.(*core.GossipPayload); ok {
			l.Absorb(pl.Rumors, now)
		}
	}
	if !l.sent {
		l.sent = true
		out.Send(sim.ProcID(l.r.Intn(l.n)), &core.GossipPayload{Rumors: l.Rumors().Snapshot()})
	}
}

func (l *lazyNode) Quiescent() bool { return l.sent }

func (l *lazyNode) CloneNode() sim.Node {
	return &lazyNode{
		Tracker: l.CloneTracker(),
		id:      l.id,
		n:       l.n,
		sent:    l.sent,
		r:       l.r.Clone(),
	}
}

func (l *lazyNode) Reseed(r *rng.RNG) { l.r = r }

func TestTheorem1AgainstEARS(t *testing.T) {
	// ears keeps gossiping while obligations are open, so every S2 process
	// is promiscuous in isolation: the adversary forces Ω(f²) messages.
	cfg := Config{N: 128, F: 32, Seed: 1, Trials: 8}
	rep, err := Run(core.EARS{}, core.Params{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied() {
		t.Fatalf("dichotomy not witnessed: %s", rep)
	}
	if rep.Case == CaseMessages && rep.ForcedMessages < rep.MessageTarget {
		t.Fatalf("case 1 fired but forced messages %d below target %d",
			rep.ForcedMessages, rep.MessageTarget)
	}
	t.Logf("ears: %s", rep)
}

func TestTheorem1AgainstTrivial(t *testing.T) {
	// Trivial floods n−1 messages in the first step: archetypal
	// promiscuity. Expect the message case with ~|S2|·(n−1) messages.
	cfg := Config{N: 128, F: 32, Seed: 2, Trials: 4}
	rep, err := Run(core.Trivial{}, core.Params{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != CaseMessages && rep.Case != CaseSlowStart {
		t.Fatalf("expected message or slow-start case for trivial, got %s", rep)
	}
	if !rep.Satisfied() {
		t.Fatalf("dichotomy not witnessed: %s", rep)
	}
	t.Logf("trivial: %s", rep)
}

func TestTheorem1AgainstSEARS(t *testing.T) {
	cfg := Config{N: 128, F: 32, Seed: 3, Trials: 4}
	rep, err := Run(core.SEARS{}, core.Params{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied() {
		t.Fatalf("dichotomy not witnessed: %s", rep)
	}
	t.Logf("sears: %s", rep)
}

func TestTheorem1AgainstTEARS(t *testing.T) {
	cfg := Config{N: 256, F: 64, Seed: 4, Trials: 4}
	rep, err := Run(core.TEARS{}, core.Params{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied() {
		t.Fatalf("dichotomy not witnessed: %s", rep)
	}
	t.Logf("tears: %s", rep)
}

func TestTheorem1Case2AgainstLazyProtocol(t *testing.T) {
	// The lazy protocol sends ≤ 1 message per process: non-promiscuous
	// everywhere, so the adversary must isolate a pair (Case 2) and the
	// pair must (with high probability over the single random targets)
	// never talk to each other, leaving gossip incomplete for Ω(f) time.
	cfg := Config{N: 256, F: 64, Seed: 5, Trials: 16}
	rep, err := Run(lazyProto{}, core.Params{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != CaseIsolation {
		t.Fatalf("expected isolation case for lazy protocol, got %s", rep)
	}
	if rep.Promiscuous != 0 {
		t.Fatalf("lazy protocol classified %d promiscuous processes", rep.Promiscuous)
	}
	if rep.PairCommunicated {
		t.Fatalf("isolated pair communicated (possible but p < 1/128 per direction): %s", rep)
	}
	if rep.ForcedTime < rep.TimeTarget {
		t.Fatalf("forced time %d below target %d", rep.ForcedTime, rep.TimeTarget)
	}
	// Crash budget respected: < f crashes total (proof: ≤ 3f/4).
	if rep.Crashes >= cfg.F {
		t.Fatalf("adversary used %d crashes, budget %d", rep.Crashes, cfg.F)
	}
	t.Logf("lazy: %s", rep)
}

func TestFEffectiveCappedAtQuarterN(t *testing.T) {
	cfg := Config{N: 64, F: 60, Seed: 6, Trials: 2}
	rep, err := Run(core.Trivial{}, core.Params{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FEffective != 16 {
		t.Fatalf("f capped to %d, want n/4 = 16", rep.FEffective)
	}
}

func TestTooSmallF(t *testing.T) {
	if _, err := Run(core.Trivial{}, core.Params{}, Config{N: 16, F: 2, Seed: 1}); err == nil {
		t.Fatal("tiny f accepted")
	}
}

func TestDichotomyAcrossSeeds(t *testing.T) {
	// The theorem is an expectation statement; verify the witness holds
	// for every seed in a batch (our executions are deterministic given
	// the seed, and the strategy's success probability is high).
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	hold := 0
	const seeds = 8
	for seed := int64(0); seed < seeds; seed++ {
		rep, err := Run(core.EARS{}, core.Params{}, Config{N: 96, F: 24, Seed: seed, Trials: 4})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Satisfied() {
			hold++
		}
	}
	if hold < seeds-1 {
		t.Fatalf("dichotomy witnessed in only %d/%d seeds", hold, seeds)
	}
}
