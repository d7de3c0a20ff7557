package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Tests for the push/pull/push-pull and sum-weight averaging families:
// completion under the crash-free presets, the deterministic message caps,
// ε-consensus with exact mass conservation, and bit-level float
// determinism across serial/sharded and pooled/unpooled execution.

func crashFreePresets() []string {
	return []string{adversary.PresetBenign, adversary.PresetStandard, adversary.PresetMaxDelay}
}

func TestPushPullVariantsComplete(t *testing.T) {
	for _, name := range []string{NamePush, NamePull, NamePushPull} {
		proto, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range crashFreePresets() {
			for seed := int64(0); seed < 3; seed++ {
				cfg := sim.Config{N: 48, F: 0, D: 3, Delta: 2, Seed: seed}
				res := runGossip(t, proto, Params{}, cfg, preset)
				if !res.Completed {
					t.Fatalf("%s/%s seed %d: not completed", name, preset, seed)
				}
			}
		}
	}
}

// TestPushMessageCap pins the deterministic envelope the fuzzer oracle
// uses: push-only sends at most n·B messages, B the per-process budget.
func TestPushMessageCap(t *testing.T) {
	cfg := sim.Config{N: 64, F: 0, D: 2, Delta: 2, Seed: 7}
	p := Params{N: cfg.N}.WithDefaults()
	res := runGossip(t, PushPull{Push: true}, Params{}, cfg, adversary.PresetStandard)
	if cap := int64(cfg.N) * int64(p.PushBudget()); res.Messages > cap {
		t.Fatalf("push sent %d messages, cap is n·B = %d", res.Messages, cap)
	}
	if !res.BytesKnown {
		t.Fatal("push payloads should all implement Sizer")
	}
	if res.Bytes != res.Messages {
		t.Fatalf("push bytes = %d for %d one-byte messages", res.Bytes, res.Messages)
	}
}

func TestPushPullOnSparseTopologies(t *testing.T) {
	for _, family := range []string{topology.FamilyErdosRenyi, topology.FamilyRandomRegular} {
		param := 0.0
		if family == topology.FamilyRandomRegular {
			param = 6
		}
		g, err := topology.Build(topology.Spec{Family: family, N: 64, Param: param, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{N: 64, F: 0, D: 2, Delta: 2, Seed: 11, Graph: g}
		res := runGossip(t, PushPull{Push: true, Pull: true}, Params{Graph: g}, cfg, adversary.PresetStandard)
		if !res.Completed {
			t.Fatalf("push-pull on %s: not completed", family)
		}
		if res.OffEdgeDrops != 0 {
			t.Fatalf("push-pull on %s: %d off-edge sends; sampling must stay in-neighborhood",
				family, res.OffEdgeDrops)
		}
	}
}

func TestAveragingReachesConsensus(t *testing.T) {
	for _, preset := range crashFreePresets() {
		for seed := int64(0); seed < 3; seed++ {
			cfg := sim.Config{N: 48, F: 0, D: 3, Delta: 2, Seed: seed}
			res := runGossip(t, Average{}, Params{}, cfg, preset)
			if !res.Completed {
				t.Fatalf("average/%s seed %d: not completed", preset, seed)
			}
		}
	}
}

// TestAveragingMassConservation runs averaging by hand and checks the
// invariant the protocol's correctness rests on: once the world is quiet
// (no mass in flight), Σ sums equals Σ initial values and Σ weights equals
// n, up to float addition error.
func TestAveragingMassConservation(t *testing.T) {
	cfg := sim.Config{N: 32, F: 0, D: 2, Delta: 2, Seed: 5}
	res, nodes := averagingRun(t, cfg, nil)
	var sumS, sumW, sumX float64
	for _, nd := range nodes {
		st := nd.(AverageState)
		s, wt := st.Estimate()
		sumS += s
		sumW += wt
		sumX += st.InitialValue()
	}
	if math.Abs(sumW-float64(cfg.N)) > 1e-9 {
		t.Fatalf("Σ weights = %v, want %d", sumW, cfg.N)
	}
	if math.Abs(sumS-sumX) > 1e-9 {
		t.Fatalf("Σ sums = %v, want Σ initial = %v", sumS, sumX)
	}
	// The exact n·R message count: every process spends its whole budget,
	// one message per budgeted step, on a clique where sampling never fails.
	p := Params{N: cfg.N}.WithDefaults()
	if want := int64(cfg.N) * int64(p.AvgRounds()); res.Messages != want {
		t.Fatalf("Messages = %d, want exactly n·R = %d", res.Messages, want)
	}
}

// averagingRun runs averaging under the standard preset, tracing with tr
// when it is non-nil, and fails the test unless the run completes. It
// returns the result and the nodes in their final state.
func averagingRun(t *testing.T, cfg sim.Config, tr sim.Tracer) (sim.Result, []sim.Node) {
	t.Helper()
	p := Params{N: cfg.N, Shards: cfg.Shards}
	nodes, err := NewNodes(Average{}, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.ByName(adversary.PresetStandard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		w.SetTracer(tr)
	}
	res, err := w.Run(Average{}.Evaluator(p))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("average n=%d shards=%d seed %d: not completed", cfg.N, cfg.Shards, cfg.Seed)
	}
	return res, nodes
}

// sentAvg is one sent averaging payload with the bits it carried when sent.
type sentAvg struct {
	pl   *AvgPayload
	s, w uint64
}

func newSentAvg(pl *AvgPayload) sentAvg {
	return sentAvg{pl: pl, s: math.Float64bits(pl.S), w: math.Float64bits(pl.W)}
}

// avgRetainTracer keeps every averaging payload handed to the kernel.
type avgRetainTracer struct {
	sim.NopTracer
	sent []sentAvg
}

func (r *avgRetainTracer) OnSend(m sim.Message) {
	if pl, ok := m.Payload.(*AvgPayload); ok {
		r.sent = append(r.sent, newSentAvg(pl))
	}
}

// checkSentAvg fails unless every retained payload still carries its
// send-time bits and no two sends shared a payload slot.
func checkSentAvg(t *testing.T, sent []sentAvg) {
	t.Helper()
	seen := make(map[*AvgPayload]int, len(sent))
	for i, s := range sent {
		if math.Float64bits(s.pl.S) != s.s || math.Float64bits(s.pl.W) != s.w {
			t.Fatalf("send %d: payload changed after it was sent: (%v, %v)", i, s.pl.S, s.pl.W)
		}
		if j, dup := seen[s.pl]; dup {
			t.Fatalf("sends %d and %d carried the same payload slot", j, i)
		}
		seen[s.pl] = i
	}
}

// TestAveragingPayloadsStayImmutable pins the chunk-carving contract:
// every payload a node sends keeps its (S, W) bits until the end of the
// run, serial and sharded, and a CloneNode'd node stepped next to its
// original carves its own slots rather than rewriting the original's.
func TestAveragingPayloadsStayImmutable(t *testing.T) {
	for _, shards := range []int{0, 4} {
		rt := &avgRetainTracer{}
		cfg := sim.Config{N: 64, F: 0, D: 2, Delta: 2, Seed: 3, Shards: shards}
		res, _ := averagingRun(t, cfg, rt)
		if int64(len(rt.sent)) != res.Messages {
			t.Fatalf("shards=%d: retained %d payloads for %d messages", shards, len(rt.sent), res.Messages)
		}
		checkSentAvg(t, rt.sent)
	}

	const n = 16
	p := Params{N: n}
	orig := Average{}.NewNode(0, p, rng.New(5))
	var out sim.Outbox
	var sent []sentAvg
	step := func(nd sim.Node, now sim.Time, inbox []sim.Message) {
		out.Reset(nd.ID(), now, n)
		nd.Step(now, inbox, &out)
		for _, m := range out.Messages() {
			sent = append(sent, newSentAvg(m.Payload.(*AvgPayload)))
		}
	}
	// Carve part of the original's chunk, so the clone copies a chunk with
	// unsent slots left in it.
	for now := sim.Time(1); now <= 3; now++ {
		step(orig, now, nil)
	}
	clone := orig.(sim.Cloner).CloneNode()
	// Extra mass makes the clone's sends differ from the original's, so a
	// shared slot would be overwritten with different bits.
	extra := []sim.Message{{From: 1, To: 0, Payload: &AvgPayload{S: 1, W: 1}}}
	for now := sim.Time(4); now <= 8; now++ {
		step(orig, now, nil)
		step(clone, now, extra)
	}
	if len(sent) != 3+2*5 {
		t.Fatalf("stepped nodes sent %d payloads, want 13", len(sent))
	}
	checkSentAvg(t, sent)
}

// avgStateBits fingerprints the exact bit patterns of every node's
// (sum, weight) pair.
func avgStateBits(nodes []sim.Node) []uint64 {
	out := make([]uint64, 0, 2*len(nodes))
	for _, nd := range nodes {
		s, w := nd.(AverageState).Estimate()
		out = append(out, math.Float64bits(s), math.Float64bits(w))
	}
	return out
}

// TestAveragingFloatDeterminism is the float-determinism pin for the
// sharded kernel: the event digest deliberately excludes payload contents,
// so serial≡sharded is asserted here on the raw float64 bit patterns of
// every node's final state — any reordering of float additions in the
// sharded replay would show up immediately.
func TestAveragingFloatDeterminism(t *testing.T) {
	run := func(shards int) ([]uint64, sim.Result) {
		cfg := sim.Config{N: 33, F: 0, D: 3, Delta: 2, Seed: 13, Shards: shards}
		res, nodes := averagingRun(t, cfg, nil)
		return avgStateBits(nodes), res
	}
	refBits, refRes := run(0)
	for _, shards := range []int{2, 3, 7, 33} {
		bits, res := run(shards)
		if res != refRes {
			t.Fatalf("shards=%d: result diverged:\n got %+v\nwant %+v", shards, res, refRes)
		}
		for i := range refBits {
			if bits[i] != refBits[i] {
				t.Fatalf("shards=%d: float state diverged at node %d (%016x != %016x)",
					shards, i/2, bits[i], refBits[i])
			}
		}
	}
}

// TestNewFamiliesPooledUnpooledIdentical pins that pooling is invisible to
// the new families (their payloads never touch the pool, and NewNodes'
// pool plumbing must not perturb the node RNG streams).
func TestNewFamiliesPooledUnpooledIdentical(t *testing.T) {
	for _, name := range []string{NamePush, NamePull, NamePushPull, NameAverage} {
		proto, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{N: 40, F: 0, D: 3, Delta: 2, Seed: 21}
		pooled, err := tryRunGossip(proto, Params{}, cfg, adversary.PresetStandard)
		if err != nil {
			t.Fatal(err)
		}
		unpooled, err := tryRunGossip(proto, Params{NoPool: true}, cfg, adversary.PresetStandard)
		if err != nil {
			t.Fatal(err)
		}
		if pooled != unpooled {
			t.Fatalf("%s: pooled and unpooled runs diverged:\n got %+v\nwant %+v",
				name, pooled, unpooled)
		}
	}
}
