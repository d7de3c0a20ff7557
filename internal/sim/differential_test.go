package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// kernelRun is what the differential compares between World and the
// reference kernel: the event stream, the result (the evaluator's outcome
// included) and the per-process counts.
type kernelRun struct {
	digest    uint64
	events    int64
	res       sim.Result
	failed    bool
	delivered []int64
	sent      []int64
	steps     []int64
}

// runWorld executes r on World, serial or sharded.
func runWorld(t *testing.T, r assemble.Run, shards int) kernelRun {
	t.Helper()
	r.Shards = shards
	pc, err := assemble.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
	if err != nil {
		t.Fatal(err)
	}
	dig := sim.NewDigestTracer()
	w.SetTracer(dig)
	res, runErr := w.Run(pc.Evaluator)
	m := w.Metrics()
	// Conservation: every sent message was delivered or is still queued
	// (to a crashed process, or at a timeout).
	delivered := int64(0)
	for _, d := range m.DeliveredTo {
		delivered += d
	}
	if pending := w.ArenaStats().PendingMessages; res.Messages != delivered+pending {
		t.Fatalf("shards=%d: %d messages sent, %d delivered + %d pending", shards, res.Messages, delivered, pending)
	}
	return kernelRun{dig.Sum(), dig.Events(), res, runErr != nil, m.DeliveredTo, m.SentBy, m.Steps}
}

// runReference executes r on the reference kernel with unpooled nodes.
func runReference(t *testing.T, r assemble.Run) kernelRun {
	t.Helper()
	r.Gossip.NoPool = true
	pc, err := assemble.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	dig := sim.NewDigestTracer()
	k := newRefKernel(pc.Config, pc.Nodes, pc.Adversary, dig)
	res, runErr := k.run(pc.Evaluator)
	m := k.metrics
	return kernelRun{dig.Sum(), dig.Events(), res, runErr != nil, m.DeliveredTo, m.SentBy, m.Steps}
}

// checkDifferential runs r through the reference kernel, the serial World
// and a three-shard World, and fails on any difference.
func checkDifferential(t *testing.T, r func() assemble.Run) {
	t.Helper()
	want := runReference(t, r())
	for _, shards := range []int{0, 3} {
		if got := runWorld(t, r(), shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("World (shards=%d) disagrees with the reference kernel:\n world     %+v\n reference %+v",
				shards, got, want)
		}
	}
}

// goldenSpec is the shape of the scenario package's golden-digest cells.
func goldenSpec(protocol string) scenario.Spec {
	return scenario.Spec{
		Protocol: protocol, N: 24, F: 3, D: 2, Delta: 2, Seed: 1234, MaxSteps: 200000,
		Schedule: scenario.ScheduleSpec{Kind: scenario.SchedStride, Seed: 51},
		Delay:    scenario.DelaySpec{Kind: scenario.DelayUniform, Seed: 52},
		Crashes:  []scenario.CrashEvent{{At: 3, Proc: 1}, {At: 9, Proc: 4}, {At: 17, Proc: 2}},
	}
}

// goldenSpecs re-states the twelve gossip golden cells.
func goldenSpecs() map[string]scenario.Spec {
	specs := map[string]scenario.Spec{}
	for _, p := range []string{"trivial", "ears", "sears", "tears", "naive", "push", "pull", "push-pull"} {
		specs[p] = goldenSpec(p)
	}
	for _, p := range []string{"sync-epidemic", "sync-deterministic"} {
		specs[p] = scenario.Spec{
			Protocol: p, N: 24, D: 1, Delta: 1, Seed: 1234, MaxSteps: 200000,
			Schedule: scenario.ScheduleSpec{Kind: scenario.SchedEvery},
			Delay:    scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		}
	}
	avg := goldenSpec("average")
	avg.F, avg.Crashes = 0, nil
	specs["average"] = avg
	ring := goldenSpec("ears")
	ring.F, ring.Crashes, ring.Topology = 0, nil, topology.FamilyRing
	specs["ears-ring"] = ring
	return specs
}

func TestReferenceKernelGolden(t *testing.T) {
	specs := goldenSpecs()
	if len(specs) != 12 {
		t.Fatalf("%d golden cells, want 12", len(specs))
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) { checkDifferential(t, spec.Run) })
	}
}

func TestReferenceKernelCorpus(t *testing.T) {
	c, err := scenario.LoadCorpus("../../testdata/corpus-seed", 1000, func(path string, err error) {
		t.Errorf("%s: %v", path, err)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 28 {
		t.Fatalf("corpus seed has %d entries, want 28", c.Len())
	}
	for _, e := range c.Entries() {
		spec := e.Spec
		t.Run(e.Digest, func(t *testing.T) { checkDifferential(t, spec.Run) })
	}
}

// TestReferenceKernelConsensus covers the four consensus golden cells
// (n=64, f=31, d=δ=2, seed 1, standard adversary), whose nodes keep
// payloads across steps and send many messages per step.
func TestReferenceKernelConsensus(t *testing.T) {
	for _, kind := range consensus.TransportKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			checkDifferential(t, func() assemble.Run {
				return assemble.Run{
					Transport: kind, N: 64, F: 31, D: 2, Delta: 2, Seed: 1,
					Preset: adversary.PresetStandard,
				}
			})
		})
	}
}

// TestPendingSurvivesHandBack: Run hands only free blocks on, so after a
// crash-heavy run and after a timed-out run the blocks that still queue
// messages stay with the world and sent = delivered + pending holds
// (runWorld checks it). Each run is repeated on the blocks the previous
// ones handed back, and must not change.
func TestPendingSurvivesHandBack(t *testing.T) {
	for _, c := range []struct {
		name string
		run  assemble.Run
	}{
		{"crashes", assemble.Run{Protocol: "push-pull", N: 128, F: 63, D: 4, Delta: 2, Seed: 3, Preset: adversary.PresetStandard}},
		{"timeout", assemble.Run{Protocol: "ears", N: 128, D: 4, Delta: 2, Seed: 3, MaxSteps: 6, Preset: adversary.PresetStandard}},
	} {
		for _, shards := range []int{0, 3} {
			first := runWorld(t, c.run, shards)
			delivered := int64(0)
			for _, d := range first.delivered {
				delivered += d
			}
			if first.res.Messages == delivered || first.res.TimedOut != (c.run.MaxSteps > 0) {
				t.Fatalf("%s, shards=%d: the run left nothing pending or did not end as meant: %+v", c.name, shards, first.res)
			}
			if again := runWorld(t, c.run, shards); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s, shards=%d: a rerun on handed-back blocks differs:\n first %+v\n again %+v", c.name, shards, first, again)
			}
		}
	}
}
