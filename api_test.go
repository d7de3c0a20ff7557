package repro

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunGossipDefaults(t *testing.T) {
	r, err := Run(context.Background(), GossipSpec{N: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Gossip
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
	if len(res.Rumors) != 32 {
		t.Fatalf("rumor sets: %d", len(res.Rumors))
	}
	for p, rs := range res.Rumors {
		if len(rs) != 32 {
			t.Fatalf("process %d knows %d rumors, want 32", p, len(rs))
		}
	}
}

func TestRunGossipAllProtocols(t *testing.T) {
	for _, proto := range []string{
		ProtoTrivial, ProtoEARS, ProtoSEARS, ProtoTEARS,
		ProtoSyncEpidemic, ProtoSyncDeterministic,
		ProtoPush, ProtoPull, ProtoPushPull, ProtoAverage,
	} {
		spec := GossipSpec{Protocol: proto, N: 32, F: 8, D: 2, Delta: 2, Seed: 2}
		switch proto {
		case ProtoSyncEpidemic, ProtoSyncDeterministic:
			spec.D, spec.Delta = 1, 1 // sync baselines assume d = δ = 1
		case ProtoPush, ProtoPull, ProtoPushPull, ProtoAverage:
			spec.F = 0 // crashes are outside the O(1)-state families' promises
		}
		r, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !r.Gossip.Completed {
			t.Fatalf("%s: not completed", proto)
		}
	}
}

func TestRunGossipCrashReporting(t *testing.T) {
	r, err := Run(context.Background(), GossipSpec{
		Protocol: ProtoEARS, N: 24, F: 6, Adversary: AdversaryCrashStorm, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Gossip; res.Crashes != 6 || len(res.Crashed) != 6 {
		t.Fatalf("crash accounting: %d / %v", res.Crashes, res.Crashed)
	}
}

func TestRunGossipErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, GossipSpec{Protocol: "nope", N: 8}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Run(ctx, GossipSpec{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(ctx, GossipSpec{N: 8, Adversary: "nope"}); err == nil {
		t.Fatal("unknown adversary accepted")
	}
}

func TestRunConsensusAllTransports(t *testing.T) {
	for _, tr := range []string{TransportDirect, TransportEARS, TransportSEARS, TransportTEARS} {
		r, err := Run(context.Background(), ConsensusSpec{
			Transport: tr, N: 24, F: 11, D: 2, Delta: 2, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !r.Consensus.Completed {
			t.Fatalf("%s: not completed", tr)
		}
		if r.Consensus.Decision > 1 {
			t.Fatalf("%s: non-binary decision %d", tr, r.Consensus.Decision)
		}
	}
}

func TestRunConsensusUnanimous(t *testing.T) {
	inputs := make([]uint8, 16)
	for i := range inputs {
		inputs[i] = 1
	}
	r, err := Run(context.Background(), ConsensusSpec{N: 16, F: 7, Inputs: inputs, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Consensus.Decision != 1 {
		t.Fatalf("decision %d on unanimous 1", r.Consensus.Decision)
	}
}

func TestRunConsensusValidation(t *testing.T) {
	if _, err := Run(context.Background(), ConsensusSpec{N: 8, F: 4}); err == nil {
		t.Fatal("F = N/2 accepted")
	}
}

func TestRunLowerBound(t *testing.T) {
	r, err := Run(context.Background(), LowerBoundSpec{Protocol: ProtoEARS, N: 96, F: 24, Seed: 6, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.LowerBound
	if !rep.Satisfied() {
		t.Fatalf("dichotomy not witnessed: %s", rep)
	}
	if !strings.Contains(rep.String(), "case=") {
		t.Fatalf("report string: %s", rep)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	spec := GossipSpec{Protocol: ProtoTEARS, N: 64, F: 31, Seed: 7}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Gossip.Messages != b.Gossip.Messages || a.Gossip.TimeSteps != b.Gossip.TimeSteps {
		t.Fatal("same seed produced different runs")
	}
}

func TestRunGossipTimeline(t *testing.T) {
	spec := GossipSpec{Protocol: ProtoTEARS, N: 10, F: 2, Seed: 3, Timeline: true}
	r, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tl := r.Gossip.Timeline; !strings.Contains(tl, "legend:") || !strings.Contains(tl, "p0") {
		t.Fatalf("timeline missing:\n%s", tl)
	}
	// Without the flag, no timeline is rendered.
	spec.Timeline = false
	r, err = Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Gossip.Timeline != "" {
		t.Fatal("timeline rendered without being requested")
	}
}

func TestRunGossipPartitionPreset(t *testing.T) {
	r, err := Run(context.Background(), GossipSpec{
		Protocol: ProtoEARS, N: 32, F: 0, D: 8, Delta: 2,
		Adversary: "partition", Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Gossip.Completed {
		t.Fatalf("%+v", r.Gossip)
	}
}

// TestWithShardsBitIdentical is the public-API face of the sharded kernel
// contract: gossip and consensus runs are event-for-event identical at
// every shard count, including under the crash-heavy preset.
func TestWithShardsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []GossipSpec{
		{Protocol: ProtoEARS, N: 24, F: 5, D: 3, Delta: 2, Seed: 7},
		{Protocol: ProtoTEARS, N: 30, F: 3, D: 2, Delta: 2, Seed: 11, Adversary: AdversaryCrashStorm},
		{Protocol: ProtoSEARS, N: 20, F: 2, D: 2, Delta: 1, Seed: 3, Topology: TopoRing},
		{Protocol: ProtoSyncEpidemic, N: 16, F: 0, D: 1, Delta: 1, Seed: 5, Adversary: AdversaryBenign},
	} {
		refDig := sim.NewDigestTracer()
		ref, err := Run(ctx, spec, WithTracer(refDig))
		if err != nil {
			t.Fatalf("%s serial: %v", spec.Protocol, err)
		}
		for _, shards := range []int{1, 2, 3, 7, spec.N} {
			dig := sim.NewDigestTracer()
			got, err := Run(ctx, spec, WithTracer(dig), WithShards(shards))
			if err != nil {
				t.Fatalf("%s shards=%d: %v", spec.Protocol, shards, err)
			}
			if !reflect.DeepEqual(ref.Gossip, got.Gossip) {
				t.Fatalf("%s shards=%d: results diverged:\n serial %+v\n sharded %+v",
					spec.Protocol, shards, ref.Gossip, got.Gossip)
			}
			if dig.Sum() != refDig.Sum() || dig.Events() != refDig.Events() {
				t.Fatalf("%s shards=%d: digest diverged", spec.Protocol, shards)
			}
		}
	}

	cspec := ConsensusSpec{Transport: TransportTEARS, N: 21, F: 4, D: 2, Delta: 2, Seed: 9}
	refDig := sim.NewDigestTracer()
	ref, err := Run(ctx, cspec, WithTracer(refDig))
	if err != nil {
		t.Fatalf("consensus serial: %v", err)
	}
	for _, shards := range []int{2, 5, 21} {
		dig := sim.NewDigestTracer()
		got, err := Run(ctx, cspec, WithTracer(dig), WithShards(shards))
		if err != nil {
			t.Fatalf("consensus shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(ref.Consensus, got.Consensus) {
			t.Fatalf("consensus shards=%d: results diverged", shards)
		}
		if dig.Sum() != refDig.Sum() || dig.Events() != refDig.Events() {
			t.Fatalf("consensus shards=%d: digest diverged", shards)
		}
	}
}

// TestWithLeanTrimsOnlyMaterialization: lean runs drop the Θ(n²) Rumors
// listing but change nothing the run computed.
func TestWithLeanTrimsOnlyMaterialization(t *testing.T) {
	ctx := context.Background()
	spec := GossipSpec{Protocol: ProtoTEARS, N: 40, F: 4, D: 2, Delta: 2, Seed: 13}
	full, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := Run(ctx, spec, WithLean(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if lean.Gossip.Rumors != nil {
		t.Fatal("lean run materialized Rumors")
	}
	trimmed := *full.Gossip
	trimmed.Rumors = nil
	if !reflect.DeepEqual(&trimmed, lean.Gossip) {
		t.Fatalf("lean run diverged beyond Rumors:\n full %+v\n lean %+v", &trimmed, lean.Gossip)
	}
}

// TestRunManyRejectsSharedObserver: a concurrent batch must not race on a
// shared tracer/telemetry observer.
func TestRunManyRejectsSharedObserver(t *testing.T) {
	specs := []GossipSpec{{Protocol: ProtoEARS, N: 8, D: 1, Delta: 1, Seed: 1}}
	_, errs := RunMany(context.Background(), specs, WithTracer(sim.NewDigestTracer()))
	if errs[0] == nil {
		t.Fatal("concurrent RunMany accepted a shared tracer")
	}
	rec := NewTelemetryRecorder(8)
	res, errs := RunMany(context.Background(), specs, WithTelemetry(rec), WithWorkers(1))
	if errs[0] != nil {
		t.Fatalf("serial RunMany rejected telemetry: %v", errs[0])
	}
	if res[0].Gossip == nil {
		t.Fatal("missing result")
	}
	if rec.Snapshot().Sends == 0 {
		t.Fatal("telemetry recorder observed nothing")
	}
}

// TestRunCancelledContext: non-fuzz runs abort on an already-cancelled
// context before any work starts.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, GossipSpec{Protocol: ProtoEARS, N: 8, D: 1, Delta: 1}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
