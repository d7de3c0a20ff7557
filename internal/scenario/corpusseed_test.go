package scenario

import (
	"flag"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// The committed mini-corpus under testdata/corpus-seed is the PR smoke
// seed: ~20 hand-picked scenarios covering every protocol and every
// generated topology family — including the PR 4 EARS/SEARS livelock
// scenario (ears on a ring, completion promise armed) — that cmd/fuzz
// replays and mutates on every pull request. Regenerate after a deliberate
// spec or digest change with:
//
//	go test ./internal/scenario -run TestSeedCorpusCommitted -regen-corpus-seed
var regenCorpusSeed = flag.Bool("regen-corpus-seed", false,
	"rewrite testdata/corpus-seed from the seed spec list")

const corpusSeedDir = "../../testdata/corpus-seed"

// seedSpecs is the mini-corpus domain: the asynchronous protocols with
// crashes on the clique (initiator-sparing crashes for the spreading
// family), the crash-free sync baselines and averaging, ears and sears
// across all six generated families, push-pull and averaging on the
// expander families, and one sharded-twin entry.
func seedSpecs() []Spec {
	async := func(proto string, n, f int, majority bool) Spec {
		return finishSeedSpec(Spec{
			Protocol: proto, N: n, F: f, D: 2, Delta: 2, Seed: 1234,
			Schedule: ScheduleSpec{Kind: SchedStride, Seed: 51},
			Delay:    DelaySpec{Kind: DelayUniform, Seed: 52},
			Crashes: []CrashEvent{
				{At: 3, Proc: 1}, {At: 9, Proc: 4}, {At: 17, Proc: 2},
			},
			Majority:       majority,
			ExpectComplete: proto != "naive",
		})
	}
	sync := func(proto string) Spec {
		return finishSeedSpec(Spec{
			Protocol: proto, N: 24, F: 0, D: 1, Delta: 1, Seed: 1234,
			Schedule:       ScheduleSpec{Kind: SchedEvery},
			Delay:          DelaySpec{Kind: DelayFixed, Value: 1},
			ExpectComplete: true,
		})
	}
	sparse := func(proto, family string, param float64) Spec {
		return finishSeedSpec(Spec{
			Protocol: proto, N: 24, F: 0, D: 2, Delta: 2, Seed: 1234,
			Topology: family, TopologyParam: param, TopologySeed: 7,
			Schedule:       ScheduleSpec{Kind: SchedStride, Seed: 51},
			Delay:          DelaySpec{Kind: DelayUniform, Seed: 52},
			ExpectComplete: true,
		})
	}

	specs := []Spec{
		async("trivial", 24, 3, false),
		async("ears", 24, 3, false),
		async("sears", 24, 3, false),
		async("tears", 24, 3, true),
		async("naive", 24, 3, false),
		sync("sync-epidemic"),
		sync("sync-deterministic"),
		// The O(1)-state families: spreading with initiator-sparing crashes
		// (async's victims are 1, 4 and 2), averaging crash-free.
		async("push", 24, 3, false),
		async("pull", 24, 3, false),
		async("push-pull", 24, 3, false),
		finishSeedSpec(Spec{
			Protocol: "average", N: 24, F: 0, D: 2, Delta: 2, Seed: 1234,
			Schedule:       ScheduleSpec{Kind: SchedStride, Seed: 51},
			Delay:          DelaySpec{Kind: DelayUniform, Seed: 52},
			ExpectComplete: true,
		}),
	}
	for _, proto := range []string{"ears", "sears"} {
		for _, family := range genSparseFamilies {
			param := 0.0
			if family == topology.FamilyRandomRegular {
				param = 4
			}
			specs = append(specs, sparse(proto, family, param))
		}
	}
	for _, proto := range []string{"push-pull", "average"} {
		for _, family := range genExpanderFamilies {
			param := 0.0
			if family == topology.FamilyRandomRegular {
				param = 6
			}
			specs = append(specs, sparse(proto, family, param))
		}
	}
	// A sharded-twin entry, so the shard-equivalence oracle replays on
	// every PR too.
	sharded := async("tears", 32, 5, true)
	sharded.Shards = 2
	sharded.MaxSteps = int64(sim.DefaultMaxSteps(sim.Config{
		N: sharded.N, F: sharded.F, D: sim.Time(sharded.D), Delta: sim.Time(sharded.Delta),
	}))
	return append(specs, sharded)
}

// livelockSeedSpec is the PR 4 livelock scenario as committed in the
// corpus: ears on a ring — the configuration whose [n]-wide informed-list
// obligations livelocked before the neighborhood-scoping fix — with the
// completion promise armed, so a regression times out and fires the
// completion oracle in every PR's replay pass.
func livelockSeedSpec() Spec {
	return finishSeedSpec(Spec{
		Protocol: "ears", N: 24, F: 0, D: 2, Delta: 2, Seed: 1234,
		Topology: topology.FamilyRing, TopologySeed: 7,
		Schedule:       ScheduleSpec{Kind: SchedStride, Seed: 51},
		Delay:          DelaySpec{Kind: DelayUniform, Seed: 52},
		ExpectComplete: true,
	})
}

// finishSeedSpec materializes the horizon the way the generator does.
func finishSeedSpec(s Spec) Spec {
	s.MaxSteps = int64(sim.DefaultMaxSteps(sim.Config{
		N: s.N, F: s.F, D: sim.Time(s.D), Delta: sim.Time(s.Delta),
	}))
	return s
}

// seedEntry executes one seed spec and builds its corpus entry with honest
// coverage bookkeeping (feature tuple and envelope ratios from the actual
// run). The spec must pass the whole oracle catalog.
func seedEntry(t *testing.T, s Spec, gen int64) *CorpusEntry {
	t.Helper()
	out, err := fuzzSpec(s, 0, gen, 0)
	if err != nil {
		t.Fatalf("seed spec %s: %v", s.Label(), err)
	}
	if out.report != nil {
		t.Fatalf("seed spec %s violates %s: %s", s.Label(),
			out.report.Violations[0].Oracle, out.report.Violations[0].Detail)
	}
	return &CorpusEntry{
		Schema:        CorpusSchema,
		Digest:        SpecDigest(s),
		Spec:          s,
		Feature:       out.feature,
		Tightness:     out.tightness(),
		Why:           "seed",
		AddedGen:      gen,
		ProductiveGen: gen,
	}
}

func TestSeedCorpusCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay in -short mode")
	}
	specs := seedSpecs()

	if *regenCorpusSeed {
		c := NewCorpus(0)
		for i, s := range specs {
			e := seedEntry(t, s, int64(i))
			c.entries[e.Digest] = e
		}
		if err := c.Save(corpusSeedDir); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", c.Len(), corpusSeedDir)
		return
	}

	c, err := LoadCorpus(corpusSeedDir, 0, func(path string, err error) {
		t.Errorf("corpus entry %s: %v", path, err)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(specs) {
		t.Fatalf("committed corpus holds %d entries, seed list has %d — regenerate with -regen-corpus-seed",
			c.Len(), len(specs))
	}
	protos := map[string]bool{}
	families := map[string]bool{}
	for i, s := range specs {
		if c.entries[SpecDigest(s)] == nil {
			t.Errorf("seed spec %d (%s) missing from committed corpus", i, s.Label())
		}
		protos[s.Protocol] = true
		topo := s.Topology
		if topo == "" {
			topo = topology.FamilyComplete
		}
		families[topo] = true
	}
	for _, p := range genProtocols {
		if !protos[p.name] {
			t.Errorf("no seed entry for protocol %s", p.name)
		}
	}
	for _, f := range append([]string{topology.FamilyComplete}, genSparseFamilies...) {
		if !families[f] {
			t.Errorf("no seed entry on topology family %s", f)
		}
	}
	if c.entries[SpecDigest(livelockSeedSpec())] == nil {
		t.Error("the PR 4 ears-ring livelock scenario is missing from the committed corpus")
	}

	// The regression pass CI runs on every PR: every entry replays clean.
	sum, err := ReplayCorpus(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Corpus == nil || sum.Corpus.Replayed != len(specs) {
		t.Fatalf("replayed %+v entries, want %d", sum.Corpus, len(specs))
	}
	if len(sum.Reports) != 0 {
		t.Fatalf("committed corpus violates oracles: %s: %s",
			sum.Reports[0].Violations[0].Oracle, sum.Reports[0].Violations[0].Detail)
	}
}
