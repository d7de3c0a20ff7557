package repro

import (
	"context"
	"reflect"
	"testing"
)

// TestRunGossipDeterministic: the same GossipSpec (same Seed) yields an
// identical GossipResult across invocations — guarding the RNG plumbing
// (node streams, adversary streams, topology generation) against
// accidental nondeterminism such as map-iteration ordering.
func TestRunGossipDeterministic(t *testing.T) {
	specs := []GossipSpec{
		{Protocol: ProtoEARS, N: 48, F: 12, D: 2, Delta: 2, Seed: 11},
		{Protocol: ProtoSEARS, N: 48, F: 12, Seed: 11},
		{Protocol: ProtoTEARS, N: 64, F: 16, Seed: 11},
		{Protocol: ProtoEARS, N: 48, Seed: 11, Topology: TopoErdosRenyi},
		{Protocol: ProtoEARS, N: 48, Seed: 11, Topology: TopoBarabasiAlbert},
		{Protocol: ProtoTEARS, N: 48, Seed: 11, Topology: TopoRandomRegular},
	}
	for _, spec := range specs {
		a, errA := Run(context.Background(), spec)
		b, errB := Run(context.Background(), spec)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s/%s: error mismatch: %v vs %v", spec.Protocol, spec.Topology, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s on %q: results differ across identical runs:\n%+v\n%+v",
				spec.Protocol, spec.Topology, a.Gossip, b.Gossip)
		}
	}
}

// TestRunConsensusDeterministic: same for ConsensusSpec runs.
func TestRunConsensusDeterministic(t *testing.T) {
	specs := []ConsensusSpec{
		{Transport: TransportTEARS, N: 32, F: 7, Seed: 13},
		{Transport: TransportDirect, N: 32, F: 7, Seed: 13},
		{Transport: TransportEARS, N: 32, F: 7, Seed: 13, Topology: TopoErdosRenyi},
	}
	for _, spec := range specs {
		a, errA := Run(context.Background(), spec)
		b, errB := Run(context.Background(), spec)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("CR-%s/%s: error mismatch: %v vs %v", spec.Transport, spec.Topology, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("CR-%s on %q: results differ across identical runs:\n%+v\n%+v",
				spec.Transport, spec.Topology, a.Consensus, b.Consensus)
		}
	}
}
